//! Allocation audit of the daemon's warm path: what a steady-state
//! `spmv`, or `spmm` over four columns, by handle allocates must not
//! depend on how long its vectors are. The frame, `x`, the wire-order
//! `y` and the reply line each live in a buffer the connection owns and
//! reuses; a vector grown by doubling per request, a fresh reply
//! `String`, or a number written through a temporary shows up here as a
//! count that rises with `n`.
//!
//! A counting `#[global_allocator]` wraps the system allocator (as in
//! the workspace's `tests/zero_alloc.rs`); the whole audit lives in a
//! single `#[test]` so no sibling test thread can allocate inside the
//! measurement window, and the client side of the window reads and
//! writes preallocated buffers only.

use smat::{Smat, SmatConfig, Trainer};
use smat_matrix::gen::{generate_corpus, CorpusSpec};
use smat_matrix::Csr;
use smat_service::{ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Counts every allocation entry point; frees are not interesting here.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARM_UP: usize = 10;
const MEASURED: usize = 50;

/// One round trip through buffers that already exist.
fn round_trip(stream: &mut TcpStream, frame: &[u8], reply: &mut [u8]) -> usize {
    stream.write_all(frame).expect("write frame");
    let mut filled = 0;
    while filled == 0 || reply[filled - 1] != b'\n' {
        let n = stream.read(&mut reply[filled..]).expect("read reply");
        assert!(n > 0, "the daemon closed the connection");
        filled += n;
    }
    filled
}

/// Allocations, process-wide, over `MEASURED` steady-state warm `op`
/// requests with `k` right-hand sides on an `n`-column tridiagonal
/// matrix.
fn warm_allocations(engine: Arc<Smat<f64>>, op: &str, k: usize, n: usize) -> u64 {
    let config = ServeConfig {
        workers: 1,
        tenant_rate: 1e9,
        tenant_burst: 1e9,
        ..ServeConfig::default()
    };
    let server = Server::bind_tcp("127.0.0.1:0", engine, config).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let join = std::thread::spawn(move || server.run().expect("run"));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    stream.set_nodelay(true).expect("nodelay");
    let mut reply = vec![0u8; 128 + 32 * n * k];

    let entries: Vec<String> = (0..n)
        .flat_map(|r| {
            let left = (r > 0).then(|| format!("[{r},{},-1.0]", r - 1));
            left.into_iter().chain([format!("[{r},{r},2.5]")])
        })
        .collect();
    let tune = format!(
        "{{\"op\":\"tune\",\"matrix\":{{\"rows\":{n},\"cols\":{n},\"entries\":[{}]}}}}\n",
        entries.join(",")
    );
    let len = round_trip(&mut stream, tune.as_bytes(), &mut reply);
    let tuned = std::str::from_utf8(&reply[..len]).expect("utf-8");
    let at = tuned.find("\"handle\":\"").expect("a handle came back") + "\"handle\":\"".len();
    let handle = &tuned[at..at + tuned[at..].find('"').expect("handle ends")];
    let x: Vec<String> = (0..n * k)
        .map(|i| format!("{:?}", (i as f64 * 0.37).sin()))
        .collect();
    // `k` is a field of `spmm` frames only.
    let k_field = if op == "spmm" {
        format!(",\"k\":{k}")
    } else {
        String::new()
    };
    let frame = format!(
        "{{\"op\":\"{op}\",\"handle\":\"{handle}\"{k_field},\"x\":[{}]}}\n",
        x.join(",")
    )
    .into_bytes();

    for _ in 0..WARM_UP {
        round_trip(&mut stream, &frame, &mut reply);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..MEASURED {
        let len = round_trip(&mut stream, &frame, &mut reply);
        assert!(reply[..len].starts_with(b"{\"status\":\"ok\""));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    round_trip(&mut stream, b"{\"op\":\"shutdown\"}\n", &mut reply);
    join.join().expect("server thread");
    allocations
}

#[test]
fn warm_requests_allocate_the_same_at_any_vector_length() {
    let corpus = generate_corpus::<f64>(&CorpusSpec::small(40, 0xA110C));
    let matrices: Vec<&Csr<f64>> = corpus.iter().map(|e| &e.matrix).collect();
    let model = Trainer::new(SmatConfig::fast())
        .train(&matrices)
        .expect("training succeeds")
        .model;
    let engine = Arc::new(Smat::with_config(model, SmatConfig::default()).expect("engine"));
    // `spmm` replies are four times longer: the writer allocates
    // nothing per number.
    for (op, k) in [("spmv", 1), ("spmm", 4)] {
        let short = warm_allocations(Arc::clone(&engine), op, k, 1_000);
        let long = warm_allocations(Arc::clone(&engine), op, k, 16_000);
        assert_eq!(
            short, long,
            "allocations over {MEASURED} warm {op} requests: n = 1000 vs n = 16000"
        );
        // A request does allocate — its boxed form, the reply's few
        // small fields — just nothing that grows with `n`.
        assert!(
            short > 0 && short.is_multiple_of(MEASURED as u64),
            "{op}: {short}"
        );
    }
}
