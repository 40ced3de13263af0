//! Exit-code contract of the `preflight` binary: usage errors exit 2 with
//! a message on stderr (plus the usage text), runtime errors exit 1, and
//! successful runs exit 0. Scripts and the CI smoke job rely on this.

use std::process::{Command, Output};

fn preflight(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_preflight"))
        .args(args)
        .output()
        .expect("spawn preflight binary")
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("preflight-exit-code-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{}-{name}", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

#[test]
fn invalid_lambda_exits_2_with_a_message() {
    let out = preflight(&["preprocess", "--in", "x", "--out", "y", "--lambda", "101"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--lambda 101"), "stderr was: {stderr}");
    assert!(stderr.contains("0..=100"), "stderr was: {stderr}");
    assert!(stderr.contains("usage:"), "usage text expected: {stderr}");
}

#[test]
fn invalid_upsilon_exits_2_with_a_message() {
    for bad in ["3", "0", "18"] {
        let out = preflight(&["preprocess", "--in", "x", "--out", "y", "--upsilon", bad]);
        assert_eq!(out.status.code(), Some(2), "--upsilon {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("--upsilon {bad}")),
            "stderr was: {stderr}"
        );
        assert!(stderr.contains("even number"), "stderr was: {stderr}");
    }
}

#[test]
fn invalid_kernel_exits_2_with_a_message() {
    let out = preflight(&[
        "preprocess",
        "--in",
        "x",
        "--out",
        "y",
        "--kernel",
        "vector",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown kernel 'vector'"),
        "stderr was: {stderr}"
    );
    assert!(stderr.contains("usage:"), "usage text expected: {stderr}");
}

#[test]
fn serve_refuses_a_kernel_flag() {
    // The daemon has no kernel knob; a valid kernel name is refused too,
    // before any socket is bound.
    let out = preflight(&["serve", "--tcp", "127.0.0.1:0", "--kernel", "bitsliced"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("always runs the bit-sliced kernel"),
        "stderr was: {stderr}"
    );
}

#[test]
fn invalid_threads_exits_2_with_a_message() {
    let out = preflight(&["preprocess", "--in", "x", "--out", "y", "--threads", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads 0"), "stderr was: {stderr}");

    let out = preflight(&[
        "preprocess",
        "--in",
        "x",
        "--out",
        "y",
        "--threads",
        "not-a-number",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--threads"), "stderr was: {stderr}");
}

#[test]
fn unknown_command_and_missing_flags_exit_2() {
    assert_eq!(preflight(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(preflight(&[]).status.code(), Some(2));
    assert_eq!(preflight(&["gen"]).status.code(), Some(2)); // --out missing
}

#[test]
fn runtime_errors_exit_1_without_usage_text() {
    // A well-formed invocation that fails at runtime (missing input file).
    let out = preflight(&["check", "--in", "/definitely/not/here.fits"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr was: {stderr}");
    assert!(
        !stderr.contains("usage:"),
        "runtime failures must not dump usage: {stderr}"
    );
}

#[test]
fn successful_runs_exit_0() {
    let out_file = tmp("ok.fits");
    let out = preflight(&[
        "gen", "--out", &out_file, "--width", "8", "--height", "8", "--frames", "4",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("8x8x4"));
}

#[test]
fn flag_validation_is_uniform_across_subcommands() {
    // --threads/--lambda/--upsilon are validated by the shared helpers in
    // `opts.rs`, so every subcommand that takes one must exit 2 on the
    // same bad values — before touching the filesystem or the network.
    let cases: &[&[&str]] = &[
        &["serve", "--tcp", "127.0.0.1:0", "--threads", "0"],
        &["serve", "--tcp", "127.0.0.1:0", "--kernel", "vector"],
        &[
            "submit",
            "--in",
            "x",
            "--out",
            "y",
            "--tcp",
            "127.0.0.1:1",
            "--lambda",
            "101",
        ],
        &[
            "submit",
            "--in",
            "x",
            "--out",
            "y",
            "--tcp",
            "127.0.0.1:1",
            "--upsilon",
            "5",
        ],
        &[
            "pipeline",
            "--in",
            "x",
            "--out",
            "y",
            "--preprocess",
            "--lambda",
            "999",
        ],
        &[
            "pipeline",
            "--in",
            "x",
            "--out",
            "y",
            "--preprocess",
            "--upsilon",
            "7",
        ],
        &[
            "retrieve",
            "--in",
            "x",
            "--out",
            "y",
            "--preprocess",
            "--lambda",
            "200",
        ],
    ];
    for args in cases {
        let out = preflight(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "args {args:?}: {stderr}");
    }
}
