//! A long array is cut into pieces only while a thread of the pool is
//! spare: once the process has as many requests in flight as the pool
//! has threads, every array is read and written in one piece, and
//! pieces come back when a request ends. Its own test binary, since
//! the count of requests in flight is the process's and would change
//! what the other split tests compute.

use smat_kernels::exec::num_threads;
use smat_service::split::{piece_count, InFlight, MAX_PIECES, PIECE_VALUES};

#[test]
fn requests_in_flight_on_every_thread_leave_one_piece() {
    let threads = num_threads();
    let long = 4 * MAX_PIECES * PIECE_VALUES;
    if threads < 2 {
        assert_eq!(piece_count(long, PIECE_VALUES), 1);
        eprintln!("skipped: a pool of one thread has none spare");
        return;
    }
    assert_eq!(
        piece_count(long, PIECE_VALUES),
        MAX_PIECES,
        "none in flight"
    );
    let mut in_flight: Vec<InFlight> = (1..threads).map(|_| InFlight::begin()).collect();
    assert_eq!(
        piece_count(long, PIECE_VALUES),
        MAX_PIECES,
        "{} of {threads} threads busy",
        threads - 1
    );
    in_flight.push(InFlight::begin());
    assert_eq!(piece_count(long, PIECE_VALUES), 1, "every thread busy");
    in_flight.pop();
    assert_eq!(
        piece_count(long, PIECE_VALUES),
        MAX_PIECES,
        "one request ended"
    );
    drop(in_flight);
    assert_eq!(piece_count(long, PIECE_VALUES), MAX_PIECES);
}
