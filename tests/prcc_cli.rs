//! The `prcc` binary's argument handling, driven as a process.

use std::process::Command;

fn prcc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_prcc"))
        .args(args)
        .output()
        .expect("prcc must spawn")
}

#[test]
fn batch_takes_a_count_and_optional_bytes() {
    let ok = prcc(&["run", "ring:3", "--writes", "3", "--batch", "4:512"]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
}

#[test]
fn batch_with_an_extra_field_exits_2_naming_the_grammar() {
    let out = prcc(&["run", "ring:3", "--batch", "4:512:1"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("<count>[:<bytes>]"), "{stderr}");
}
