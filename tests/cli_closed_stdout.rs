//! The `vtjoin` binary must end quietly when its reader closes stdout
//! (`vtjoin info r.vt | head -1`), never with a panic.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs `vtjoin` with `args`, its stdout a pipe whose read end is closed
/// before the binary starts, and returns (exit success, stderr).
fn run_with_closed_stdout(args: &[&str]) -> (bool, String) {
    // The write end of a pipe nobody reads any more: `true` takes the
    // read end as its stdin and exits at once.
    let mut reader = Command::new("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn true");
    let write_end = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("true exits");
    let out = Command::new(env!("CARGO_BIN_EXE_vtjoin"))
        .args(args)
        .stdout(Stdio::from(write_end))
        .stderr(Stdio::piped())
        .output()
        .expect("run vtjoin");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn scratch_file(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vtjoin-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

#[test]
fn a_closed_stdout_ends_every_command_quietly() {
    let r = scratch_file("r.vt");
    let s = scratch_file("s.vt");
    let r_path = r.to_str().unwrap();
    let s_path = s.to_str().unwrap();
    for (path, side, seed) in [(r_path, "outer", "1"), (s_path, "inner", "2")] {
        let gen = Command::new(env!("CARGO_BIN_EXE_vtjoin"))
            .args([
                "gen", "--tuples", "300", "--seed", seed, "--side", side, "-o", path,
            ])
            .output()
            .expect("run vtjoin gen");
        assert!(gen.status.success(), "gen failed");
    }
    let commands: [&[&str]; 5] = [
        &["help"],
        &["info", r_path],
        &[
            "join",
            r_path,
            s_path,
            "--algorithm",
            "partition",
            "--buffer",
            "24",
        ],
        &["join", r_path, s_path, "--threads", "2", "--explain"],
        &["slice", r_path, "--at", "100"],
    ];
    for args in commands {
        let (ok, stderr) = run_with_closed_stdout(args);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(ok, "{args:?} must exit quietly: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(r.parent().unwrap());
}
