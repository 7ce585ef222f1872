//! Drives the `fleetd` binary over its stdin protocol: malformed input
//! gets a one-line `error:` reply and the daemon keeps serving; bad
//! flags print the usage line and exit non-zero.

use std::io::Write;
use std::process::{Command, Output, Stdio};

fn fleetd(flags: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fleetd"))
        .args(flags)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fleetd");
    // A daemon that refuses its flags exits before reading stdin.
    let _ = child.stdin.take().expect("stdin").write_all(stdin.as_bytes());
    child.wait_with_output().expect("fleetd output")
}

#[test]
fn bad_service_times_are_refused_and_the_daemon_keeps_serving() {
    let out = fleetd(
        &["--traps=4", "--workers=2"],
        "submit 3 nan 4\nsubmit 3 -5 4\nsubmit 3 inf 4\nsubmit 3 0 1\nsubmit 3 5 x\n\
         submit 3 5.0 2\nrun 5\nquit\n",
    );
    assert!(
        out.status.success(),
        "exit {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "one reply line per command before quit:\n{stdout}");
    for (line, what) in lines[..3].iter().zip(["NaN", "-5", "inf"]) {
        assert!(line.starts_with("error: service time "), "{what}: {line}");
    }
    assert!(lines[3].starts_with("error: service time 0 "), "{}", lines[3]);
    assert_eq!(lines[4], "error: submit <trap> <service_s> [count]");
    assert_eq!(lines[5], "ok queued 2 job(s) on trap 3");
    assert!(lines[6].starts_with("ok ran 5 minutes"), "{}", lines[6]);
}

#[test]
fn bad_flags_print_usage_instead_of_panicking() {
    for flag in ["--traps=0", "--qubits=1", "--qubits=40", "--service-mean=nan", "--rate=-1"] {
        let out = fleetd(&[flag], "run 1\nquit\n");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8");
        assert!(stderr.starts_with("usage: fleetd"), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}");
    }
}
