//! A connection costs two threads however many jobs it has in flight:
//! jobs are completion-driven, not parked on a waiter thread each.
//!
//! This is the only test in its binary on purpose — it reads the
//! process-wide thread count, which any concurrently running test would
//! disturb.
#![cfg(target_os = "linux")]

use std::sync::mpsc::channel;
use std::sync::Arc;

use drmap_cnn::layer::Layer;
use drmap_service::client::Client;
use drmap_service::engine::ServiceState;
use drmap_service::json::Json;
use drmap_service::pool::DsePool;
use drmap_service::proto::Request;
use drmap_service::server::JobServer;
use drmap_service::spec::{EngineSpec, JobSpec};

fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("/proc/self/status reports a thread count");
    line.trim().parse().unwrap()
}

#[test]
fn pipelined_jobs_do_not_grow_the_thread_count() {
    const JOBS: u64 = 64;
    // One worker, held inside another job's completion until the count
    // has been read: the whole pipeline sits queued behind it, however
    // fast a sweep is.
    let pool = Arc::new(DsePool::new(ServiceState::new().unwrap(), 1));
    let server = JobServer::with_pool("127.0.0.1:0", Arc::clone(&pool)).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let idle = process_threads();

    let (holding, held) = channel();
    let (release, released) = channel::<()>();
    let blocker = Layer::conv("BLOCK", 8, 8, 16, 8, 3, 3, 1);
    pool.submit_then(
        &JobSpec::layer(0, EngineSpec::default(), blocker),
        None,
        move |_| {
            holding.send(()).unwrap();
            let _ = released.recv();
        },
    );
    held.recv().unwrap();

    // 64 distinct cold layers, pipelined without reading a response…
    for id in 1..=JOBS {
        let layer = Layer::conv(&format!("L{id}"), 13, 13, 16 + id as usize, 32, 3, 3, 1);
        let job = JobSpec::layer(id, EngineSpec::default(), layer);
        client.send(&Request::Submit(job).to_json()).unwrap();
    }
    // …then a ping: control verbs answer in arrival order, so its pong
    // proves the reader has dispatched every job before it.
    client
        .send(&Request::Ping { id: Some(0) }.to_json())
        .unwrap();
    let response = client.recv().unwrap();
    assert_eq!(
        response.get("type").and_then(Json::as_str),
        Some("pong"),
        "every job must still be in flight for the count to mean anything: {response:?}"
    );
    assert_eq!(process_threads(), idle, "with {JOBS} jobs in flight");
    release.send(()).unwrap();

    for _ in 0..JOBS {
        let response = client.recv().unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response:?}");
    }
    client.shutdown().unwrap();
    server_thread.join().unwrap();
}
