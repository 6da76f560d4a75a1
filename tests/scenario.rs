//! Tests for the `sdx-cli` scenario language.

use sdx::scenario::run_scenario;

const BASE: &str = r#"
participant A asn 100 port 1 mac 02:00:00:00:00:01 ip 172.0.0.1
participant B asn 200 port 2 mac 02:00:00:00:00:02 ip 172.0.0.2
participant C asn 300 port 3 mac 02:00:00:00:00:03 ip 172.0.0.3
announce B 20.0.0.0/8 path 200,65001 nexthop 172.0.0.2
announce C 20.0.0.0/8 path 300 nexthop 172.0.0.3
policy A outbound match dstport=80 fwd B
compile
"#;

#[test]
fn quickstart_scenario_forwards_correctly() {
    let script = format!(
        "{BASE}\nsend A src 10.0.0.1 dst 20.0.0.1 dstport 80\nsend A src 10.0.0.1 dst 20.0.0.1 dstport 22\n"
    );
    let out = run_scenario(&script).unwrap();
    assert!(out.contains("compiled:"), "{out}");
    let lines: Vec<&str> = out.lines().filter(|l| l.starts_with("send:")).collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(lines[0].contains("delivered to B"), "{out}");
    assert!(lines[1].contains("delivered to C"), "{out}");
}

#[test]
fn groups_and_advertisements_render() {
    let script = format!("{BASE}\ngroups\nadvertisements A\n");
    let out = run_scenario(&script).unwrap();
    assert!(out.contains("group 0: vnh 172.16."), "{out}");
    assert!(
        out.contains("advertise 20.0.0.0/8 nexthop 172.16."),
        "{out}"
    );
}

#[test]
fn withdraw_shifts_forwarding() {
    let script =
        format!("{BASE}\nwithdraw B 20.0.0.0/8\nsend A src 10.0.0.1 dst 20.0.0.1 dstport 80\n");
    let out = run_scenario(&script).unwrap();
    // B no longer exports 20/8, so even web traffic follows the default (C).
    assert!(
        out.lines().last().unwrap().contains("delivered to C"),
        "{out}"
    );
}

#[test]
fn deny_export_respected() {
    let script = format!(
        "{BASE}\ndeny-export B 20.0.0.0/8 to A\ncompile\nsend A src 10.0.0.1 dst 20.0.0.1 dstport 80\n"
    );
    let out = run_scenario(&script).unwrap();
    assert!(
        out.lines().last().unwrap().contains("delivered to C"),
        "{out}"
    );
}

#[test]
fn inbound_policy_and_rewrite() {
    let script = r#"
participant A asn 100 port 1 mac 02:00:00:00:00:01 ip 172.0.0.1
participant B asn 200 port 2 mac 02:00:00:00:00:02 ip 172.0.0.2 port 3 mac 02:00:00:00:00:03 ip 172.0.0.3
announce B 20.0.0.0/8 path 200 nexthop 172.0.0.2
policy B inbound match srcip=0.0.0.0/1 port 2
policy B inbound match srcip=128.0.0.0/1 port 3
compile
send A src 10.0.0.1 dst 20.0.0.1 dstport 80
send A src 200.0.0.1 dst 20.0.0.1 dstport 80
"#;
    let out = run_scenario(script).unwrap();
    let sends: Vec<&str> = out.lines().filter(|l| l.starts_with("send:")).collect();
    assert!(sends[0].contains("port 2"), "{out}");
    assert!(sends[1].contains("port 3"), "{out}");
}

#[test]
fn errors_carry_line_numbers() {
    let err = run_scenario("participant A asn 100\nbogus command\n").unwrap_err();
    assert_eq!(err.line, 2);
    assert!(err.message.contains("bogus"));

    let err = run_scenario("send A src 1.2.3.4 dst 5.6.7.8\n").unwrap_err();
    assert_eq!(err.line, 1);

    let err = run_scenario("policy X outbound match dstport=80 fwd Y\n").unwrap_err();
    assert!(err.message.contains("unknown participant"), "{err}");
}

#[test]
fn committed_figure1_scenario_runs() {
    let script = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/figure1.sdx"
    ))
    .expect("scenario file exists");
    let out = run_scenario(&script).unwrap();
    assert!(out.contains("compiled:"), "{out}");
    assert!(out.contains("delivered to B port 2"), "{out}");
    assert!(out.contains("delivered to B port 3"), "{out}");
    // After B withdraws p3, the final send lands on C.
    assert!(out.trim_end().ends_with("delivered to C port 4"), "{out}");
}

#[test]
fn advertisements_list_only_routes_the_viewer_receives() {
    // B alone announces 20/8 and A's policy groups it: A receives the route
    // on the group's VNH, while B — with no best route of its own — is sent
    // a withdrawal, so nothing may be listed for it.
    let base = r#"
participant A asn 100 port 1 mac 02:00:00:00:00:01 ip 172.0.0.1
participant B asn 200 port 2 mac 02:00:00:00:00:02 ip 172.0.0.2
announce B 20.0.0.0/8 path 200 nexthop 172.0.0.2
policy A outbound match dstport=80 fwd B
compile
"#;
    let to_a = run_scenario(&format!("{base}advertisements A\n")).unwrap();
    assert!(
        to_a.contains("advertise 20.0.0.0/8 nexthop 172.16."),
        "{to_a}"
    );
    let to_b = run_scenario(&format!("{base}advertisements B\n")).unwrap();
    assert!(!to_b.contains("advertise 20.0.0.0/8"), "{to_b}");
}
