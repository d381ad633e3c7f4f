//! The Sorrento node daemon binary.
//!
//! ```text
//! sorrento-node <config.json> [--crash-after <secs>]
//! ```
//!
//! Runs one namespace server or storage provider (chosen by the
//! config's `role`) until stopped. Three ways out:
//!
//! * **`quit` on stdin or SIGTERM** — clean shutdown: a provider
//!   persists every segment changed since its last persist and
//!   checkpoints its database before exiting (it also persists every
//!   200 ms, so even a hard kill loses at most the last couple hundred
//!   milliseconds of writes).
//! * **SIGKILL / power loss** — nothing runs; recovery relies entirely
//!   on what the periodic persists wrote.
//! * **`--crash-after <secs>`** — test hook for recovery drills: the
//!   process aborts (no clean shutdown, no final persistence) after the
//!   given number of seconds, standing in for a SIGKILL that scripts
//!   can schedule deterministically.

use std::io::BufRead;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sorrento_net::config::{DaemonConfig, Role};
use sorrento_net::{daemon, flight};

/// Set by the SIGTERM handler; polled by the daemon loop via the shared
/// shutdown flag bridge below. Signal handlers may only do
/// async-signal-safe work, which a relaxed atomic store is.
static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    // Raw libc signal(2) via the C ABI: the toolchain has no libc crate
    // vendored, and one handler registration does not justify one.
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_sigterm(_sig: i32) {
        SIGTERM_SEEN.store(true, Ordering::Relaxed);
    }
    let handler = on_sigterm as extern "C" fn(i32);
    unsafe {
        signal(SIGTERM, handler as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

fn usage() -> ExitCode {
    eprintln!("usage: sorrento-node <config.json> [--crash-after <secs>]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut crash_after: Option<u64> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "-h" | "--help" => return usage(),
            "--crash-after" => match it.next().and_then(|s| s.parse().ok()) {
                Some(secs) => crash_after = Some(secs),
                None => return usage(),
            },
            _ if path.is_none() => path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("sorrento-node: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = match DaemonConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sorrento-node: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let role = match cfg.role {
        Role::Namespace => "namespace",
        Role::Standby => "standby",
        Role::Provider => "provider",
    };
    eprintln!(
        "sorrento-node: node {} ({role}) listening on {} ({} peers); type `quit` or send SIGTERM to stop",
        cfg.node_id.index(),
        cfg.listen,
        cfg.peers.len()
    );

    install_sigterm_handler();

    // The flight recorder is the black box: make sure it reaches disk
    // even when the process dies screaming. The daemon loop registers
    // its recorder with the global flight registry; a panic anywhere
    // dumps it before unwinding kills the process.
    let default_panic = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let n = flight::dump_all();
        if n > 0 {
            eprintln!("sorrento-node: dumped {n} flight recording(s) on panic");
        }
        default_panic(info);
    }));

    let shutdown = Arc::new(AtomicBool::new(false));

    // `quit` on stdin requests a clean shutdown; EOF (e.g. started with
    // stdin from /dev/null) just parks the watcher.
    let flag = Arc::clone(&shutdown);
    let _ = std::thread::Builder::new()
        .name("stdin-watcher".into())
        .spawn(move || {
            for line in std::io::stdin().lock().lines() {
                match line {
                    Ok(l) if l.trim() == "quit" => {
                        flag.store(true, Ordering::SeqCst);
                        return;
                    }
                    Ok(_) => {}
                    Err(_) => return,
                }
            }
        });

    // Bridge SIGTERM into the shared shutdown flag so the daemon loop
    // exits through its clean path (final persist + checkpoint).
    let flag = Arc::clone(&shutdown);
    let _ = std::thread::Builder::new()
        .name("signal-watcher".into())
        .spawn(move || loop {
            if SIGTERM_SEEN.load(Ordering::Relaxed) {
                flag.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        });

    // Crash drill: abort abruptly — no clean shutdown path runs, so
    // on-disk state is whatever the continuous persistence captured.
    if let Some(secs) = crash_after {
        let _ = std::thread::Builder::new()
            .name("crash-timer".into())
            .spawn(move || {
                std::thread::sleep(Duration::from_secs(secs));
                eprintln!("sorrento-node: --crash-after {secs} elapsed; aborting");
                // abort() runs no destructors, so flush the black box by
                // hand — the drill should leave evidence, like a real
                // crash with the panic hook would.
                let _ = flight::dump_all();
                std::process::abort();
            });
    }

    match daemon::run(cfg, shutdown) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sorrento-node: {e}");
            ExitCode::FAILURE
        }
    }
}
