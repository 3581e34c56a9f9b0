//! The `vericomp_serve` binary end to end: `--shutdown` against a fresh,
//! idle daemon must always be acknowledged, and the daemon must then exit
//! cleanly.
//!
//! The daemon may exit as soon as its batcher sees the shutdown flag, so
//! the acknowledgement has to be on the wire before the flag goes up. A
//! daemon that raises the flag first loses the race now and then, and
//! `--shutdown` then fails with "connection closed before the response";
//! repeating the handshake on many fresh daemons makes that visible.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Fresh daemons started and shut down, one after another.
const DAEMONS: usize = 50;

fn serve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_vericomp_serve"))
}

/// A running daemon, killed on drop so a failing assertion leaves no
/// process behind.
struct Daemon(Option<Child>);

impl Daemon {
    /// Starts a daemon on `socket` and waits until it has bound it.
    fn start(socket: &Path) -> Daemon {
        let _ = std::fs::remove_file(socket);
        let mut child = serve()
            .arg("--socket")
            .arg(socket)
            .args(["--jobs", "1"])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn vericomp_serve");
        let deadline = Instant::now() + Duration::from_secs(30);
        while !socket.exists() {
            if let Some(status) = child.try_wait().expect("poll daemon") {
                panic!("daemon exited with {status} before binding its socket");
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                panic!("socket {} never appeared", socket.display());
            }
            thread::sleep(Duration::from_millis(5));
        }
        Daemon(Some(child))
    }

    /// Waits for the daemon to exit on its own.
    fn exited(mut self) -> Output {
        let child = self.0.take().expect("daemon still owned");
        child.wait_with_output().expect("daemon exits")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(child) = &mut self.0 {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn every_idle_daemon_acknowledges_shutdown_before_exiting() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("vericomp-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket directory");
    for i in 0..DAEMONS {
        let socket = dir.join(format!("d{i}.sock"));
        let daemon = Daemon::start(&socket);
        let ack = serve()
            .arg("--shutdown")
            .arg(&socket)
            .output()
            .expect("run vericomp_serve --shutdown");
        assert!(
            ack.status.success(),
            "daemon {i}: --shutdown exited with {}: {}",
            ack.status,
            text(&ack.stderr)
        );
        assert!(
            text(&ack.stdout).contains("shutdown acknowledged"),
            "daemon {i}: no acknowledgement in {:?}",
            text(&ack.stdout)
        );
        let Output { status, stdout, .. } = daemon.exited();
        assert!(status.success(), "daemon {i} exited with {status}");
        assert!(
            text(&stdout).contains("vericomp_serve: clean shutdown"),
            "daemon {i}: no clean-shutdown line"
        );
        assert!(!socket.exists(), "daemon {i} left its socket file behind");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
