//! The servers under test: the real `drmap-serve` and `drmap-router`
//! binaries run as subprocesses. Each binds `127.0.0.1:0` and is ready
//! when it prints its `listening on ADDR` line — no sleep-polling.
//! A child is killed and reaped when its handle drops, so no run can
//! leave a process behind.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

use crate::host;

/// A running server subprocess.
pub struct Server {
    child: Child,
    /// The address the server bound.
    pub addr: SocketAddr,
    /// Kept open so the child never writes into a closed pipe.
    _banner: Box<dyn Read + Send>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Server(pid {}, {})", self.child.id(), self.addr)
    }
}

/// Pull `ADDR` out of a `… listening on ADDR[,| ]…` line.
fn listening_addr(line: &str) -> Option<SocketAddr> {
    let rest = line.split_once("listening on ")?.1;
    rest.split([' ', ','])
        .next()
        .and_then(|addr| addr.parse().ok())
}

impl Server {
    /// Read the child's banner stream until it announces its address.
    fn await_ready(mut child: Child, banner: Box<dyn Read + Send>) -> Result<Server, String> {
        let mut reader = BufReader::new(banner);
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(addr) = listening_addr(&line) {
                        return Ok(Server {
                            child,
                            addr,
                            _banner: Box::new(reader),
                        });
                    }
                }
                other => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("server exited before listening ({other:?})"));
                }
            }
        }
    }

    /// Start `drmap-serve` with `args` (the address is supplied here).
    ///
    /// # Errors
    ///
    /// Fails if the binary cannot be spawned or exits before listening.
    pub fn serve(bin_dir: &Path, args: &[&str]) -> Result<Server, String> {
        let bin = bin_dir.join("drmap-serve");
        let mut child = Command::new(&bin)
            .args(["--addr", "127.0.0.1:0", "--sample-secs", "0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let banner = child.stdout.take().expect("stdout was piped");
        Server::await_ready(child, Box::new(banner))
    }

    /// Start `drmap-router` over `backends`, with `data_conns` pipelined
    /// connections to each.
    ///
    /// # Errors
    ///
    /// Fails if the binary cannot be spawned or exits before listening.
    pub fn router(
        bin_dir: &Path,
        backends: &[SocketAddr],
        data_conns: usize,
    ) -> Result<Server, String> {
        let bin = bin_dir.join("drmap-router");
        let mut cmd = Command::new(&bin);
        cmd.args(["--addr", "127.0.0.1:0"]);
        cmd.args(["--data-conns", &data_conns.to_string()]);
        for backend in backends {
            cmd.args(["--backend", &backend.to_string()]);
        }
        // The router announces itself on stderr.
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let banner = child.stderr.take().expect("stderr was piped");
        Server::await_ready(child, Box::new(banner))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU seconds (user + system, all threads) consumed so far.
    pub fn cpu_seconds(&self) -> f64 {
        host::cpu_seconds(&self.pid())
    }

    /// Peak resident set so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        host::peak_rss_mb(&self.pid())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banner_lines_yield_the_bound_address() {
        let serve = "drmap-serve: listening on 127.0.0.1:40123 with 2 workers (cache: …)";
        assert_eq!(listening_addr(serve), "127.0.0.1:40123".parse().ok());
        let router = "drmap-router: listening on 127.0.0.1:7, routing over 2 backend(s): a, b";
        assert_eq!(listening_addr(router), "127.0.0.1:7".parse().ok());
        assert_eq!(
            listening_addr("drmap-serve: warm-started 3 cached results"),
            None
        );
    }

    #[test]
    fn a_missing_binary_is_an_error_not_a_hang() {
        let err = Server::serve(Path::new("/nonexistent-bin-dir"), &[]).unwrap_err();
        assert!(err.contains("cannot spawn"), "{err}");
    }
}
