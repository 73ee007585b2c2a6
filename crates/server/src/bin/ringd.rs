//! `ringd` — the simulation daemon.
//!
//! ```text
//! ringd --socket /tmp/ringd.sock --state-root /var/lib/ringd [knobs]
//! ```
//!
//! Serves the versioned line-JSON protocol on the Unix socket, running
//! each session on a supervised worker thread with periodic
//! integrity-verified checkpoints under the state root. SIGTERM drains
//! gracefully (checkpoint everything, then exit); `kill -9` is
//! recoverable — restart the daemon and it rediscovers every session
//! from its manifest and resumes from the newest valid snapshot.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use ring_server::daemon;
use ring_server::ServerConfig;

const USAGE: &str = "\
ringd — supervised simulation sessions over a Unix socket

USAGE:
  ringd --socket PATH --state-root DIR [OPTIONS]

OPTIONS:
  --socket PATH            Unix socket to listen on (required)
  --state-root DIR         per-session state directories (required)
  --max-sessions N         concurrent-session admission cap [8]
  --max-running N          concurrent run slots [2]
  --queue-cap N            run-slot wait-queue cap [4]
  --checkpoint-every N     periodic checkpoint cadence in cycles [10000]
  --checkpoint-keep K      snapshots retained per session, newest first [3]
  --restart-cap N          supervised restarts per session [3]
  --slice N                worker slice granularity in events [4096]
  -h, --help               this text
";

struct Args {
    socket: PathBuf,
    cfg: ServerConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut socket: Option<PathBuf> = None;
    let mut state_root: Option<PathBuf> = None;
    let mut overrides: Vec<(String, u64)> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return Err(String::new()),
            "--socket" => {
                socket = Some(PathBuf::from(it.next().ok_or("--socket needs a path")?));
            }
            "--state-root" => {
                state_root = Some(PathBuf::from(
                    it.next().ok_or("--state-root needs a directory")?,
                ));
            }
            "--max-sessions" | "--max-running" | "--queue-cap" | "--checkpoint-every"
            | "--checkpoint-keep" | "--restart-cap" | "--slice" => {
                let raw = it.next().ok_or_else(|| format!("{arg} needs a number"))?;
                let n: u64 = raw
                    .parse()
                    .map_err(|_| format!("{arg} needs a number, got `{raw}`"))?;
                overrides.push((arg, n));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let socket = socket.ok_or("--socket is required")?;
    let state_root = state_root.ok_or("--state-root is required")?;
    let mut cfg = ServerConfig::new(state_root);
    for (key, n) in overrides {
        match key.as_str() {
            "--max-sessions" => cfg.max_sessions = n as usize,
            "--max-running" => cfg.max_running = n as usize,
            "--queue-cap" => cfg.queue_cap = n as usize,
            "--checkpoint-every" => cfg.checkpoint_every = n,
            "--checkpoint-keep" => cfg.checkpoint_keep = n as usize,
            "--restart-cap" => cfg.restart_cap = u32::try_from(n).unwrap_or(u32::MAX),
            "--slice" => cfg.slice_events = n.max(1),
            _ => unreachable!("gated above"),
        }
    }
    if cfg.max_sessions == 0 || cfg.max_running == 0 {
        return Err("--max-sessions and --max-running must be at least 1".to_string());
    }
    Ok(Args { socket, cfg })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("ringd: {msg}");
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    daemon::install_signal_handlers();
    eprintln!(
        "ringd: listening on {} (state root {})",
        args.socket.display(),
        args.cfg.state_root.display()
    );
    match daemon::serve(&args.socket, args.cfg) {
        Ok(()) => {
            eprintln!("ringd: drained; bye");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ringd: {e}");
            ExitCode::FAILURE
        }
    }
}
