//! No thread outlives a process-tier run: the hub's and the workers'
//! socket reader threads are joined before `run_process_cluster` and
//! `run_worker` return.
//!
//! The check counts this process's threads, so it lives alone in its own
//! test binary: no other test runs beside it.

use std::time::Duration;

use rcv_core::RcvNode;
use rcv_runtime::orchestrator::{run_process_cluster, run_worker, ProcessSpec};

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

#[test]
fn process_tier_runs_leak_no_threads() {
    quick_cluster(0);
    let before = threads_now();
    for seed in 1..=20 {
        quick_cluster(seed);
    }
    // A joined thread can linger in /proc for a moment while the kernel
    // reaps it; a leaked one never leaves.
    let mut after = threads_now();
    for _ in 0..100 {
        if after == before {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
        after = threads_now();
    }
    assert_eq!(after, before, "threads outlived their cluster runs");
}
