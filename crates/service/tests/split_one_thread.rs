//! On a pool of one thread a long wire array is read and written in one
//! piece: the computed piece count is 1, and the pool is never asked to
//! fan out (`dispatch_count` stays flat). Its own test binary, since the
//! pool's size is fixed by the first call that builds it.

use serde_json::{Pieces, Reader};
use smat_kernels::exec::{dispatch_count, for_each_chunk, num_threads, set_thread_target};
use smat_service::proto::{parse_request, Request};
use smat_service::split::{piece_count, PIECE_BYTES, PIECE_VALUES};
use smat_service::{Response, Status};

#[test]
fn a_one_thread_pool_takes_the_one_piece_path() {
    set_thread_target(1);
    assert_eq!(num_threads(), 1);
    let n = 64 * PIECE_VALUES;
    let values: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut x = String::from("[");
    serde_json::write_f64s(&values, &mut x);
    x.push(']');
    assert_eq!(piece_count(n, PIECE_VALUES), 1);
    assert_eq!(piece_count(x.len(), PIECE_BYTES), 1);

    let dispatched = dispatch_count();
    let frame = format!("{{\"op\":\"spmv\",\"handle\":\"h1:1:1:{n:x}:1:0:0\",\"x\":{x}}}");
    match parse_request(&frame) {
        Ok(Request::Work(work)) => assert_eq!(work.x.as_deref(), Some(&values[..])),
        other => panic!("{other:?}"),
    }
    let mut reply = Response::with(Status::Ok, Vec::new());
    reply.y = Some(values.clone());
    let line = reply.to_line();
    assert!(line.ends_with(&format!(",\"y\":{x}}}")));
    let mut pieces = Pieces::default();
    let mut read = Vec::new();
    let count = piece_count(Reader::new(&x).array_reach(), PIECE_BYTES);
    Reader::new(&x)
        .f64s_in_pieces(&mut read, count, &mut pieces, &for_each_chunk)
        .expect("an array");
    assert_eq!(pieces.take_split_count(), 0);
    assert_eq!(
        dispatch_count(),
        dispatched,
        "no fan-out on a one-thread pool"
    );
}
