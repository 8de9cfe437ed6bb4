//! No thread outlives a cluster run:
//! - process tier: the hub's and the workers' socket reader threads are
//!   joined before `run_process_cluster` and `run_worker` return;
//! - thread tier: the node threads and the timer thread are joined before
//!   `run_cluster` returns, also when delay, duplication and a crash
//!   window keep the timer busy.
//!
//! The checks count this process's threads, so they live alone in their
//! own test binary and take turns through [`SERIAL`].

use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rcv_core::{RcvConfig, RcvNode};
use rcv_runtime::orchestrator::{run_process_cluster, run_worker, ProcessSpec};
use rcv_runtime::{run_rcv_cluster, ClusterSpec, NetDelay, WireFaults};
use rcv_simnet::RetryPolicy;

/// One thread-counting test at a time. It holds the `/proc` entry of the
/// last holder's thread: the next holder waits for that thread to exit,
/// so the exit does not fall inside its count.
static SERIAL: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Polls `done` for up to a second.
fn eventually(mut done: impl FnMut() -> bool) -> bool {
    for _ in 0..100 {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    done()
}

fn threads_now() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .count()
}

/// One 3-node RCV cluster whose workers are threads of this process.
fn quick_cluster(seed: u64) {
    let spec = ProcessSpec::quick(3, seed, "rcv").timeout(Duration::from_secs(20));
    let mut workers = Vec::new();
    let report = run_process_cluster(&spec, |addr| {
        for i in 0..3u32 {
            let addr = addr.to_string();
            workers.push(std::thread::spawn(move || {
                run_worker(&addr, i, "rcv", |me, n, _cfg| RcvNode::new(me, n), |_, _| 0)
            }));
        }
        Ok(Vec::new())
    })
    .expect("cluster runs");
    for w in workers {
        w.join().expect("worker thread").expect("worker ok");
    }
    assert!(report.is_clean(3), "{report:?}");
}

/// One 3-node RCV thread-tier cluster with delay, duplication and a crash
/// window: the timer thread delivers delayed messages and duplicates, and
/// drains what is still in flight at teardown.
fn faulty_thread_cluster(seed: u64) {
    let spec = ClusterSpec::quick(3, seed)
        .rounds(2)
        .tick(Duration::from_micros(200))
        .delay(NetDelay::Uniform {
            min: Duration::from_micros(100),
            max: Duration::from_millis(1),
        })
        .faults(
            WireFaults::none()
                .with_duplication(3)
                .with_crash_restart(0, 5, 40),
        )
        .timeout(Duration::from_secs(20));
    let config = RcvConfig {
        retry: Some(RetryPolicy::backoff(400, 3_200)),
        ..RcvConfig::paper()
    };
    let report = run_rcv_cluster(spec, config);
    assert!(report.is_clean(6), "{report:?}");
    assert!(report.duplicated > 0, "{report:?}");
    assert_eq!(report.restarts, 1, "{report:?}");
}

/// Runs `cluster` for seeds 0..=20 and checks the thread count after
/// seeds 1..=20 equals the count after seed 0.
fn assert_no_thread_outlives(cluster: fn(u64)) {
    let mut last = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(prev) = last.take() {
        assert!(
            eventually(|| !prev.exists()),
            "previous test thread lingers"
        );
    }
    *last = std::fs::read_link("/proc/thread-self")
        .ok()
        .map(|task| Path::new("/proc").join(task));
    cluster(0);
    let before = threads_now();
    for seed in 1..=20 {
        cluster(seed);
    }
    // A joined thread can linger in /proc for a moment while the kernel
    // reaps it; a leaked one never leaves.
    eventually(|| threads_now() == before);
    assert_eq!(threads_now(), before, "threads outlived their cluster runs");
}

#[test]
fn process_tier_runs_leak_no_threads() {
    assert_no_thread_outlives(quick_cluster);
}

#[test]
fn thread_tier_runs_leak_no_threads() {
    assert_no_thread_outlives(faulty_thread_cluster);
}
