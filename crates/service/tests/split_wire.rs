//! Long wire arrays read and written in pieces on the kernel pool
//! against the one-piece calls they stand in for: `Reader::f64s` for
//! `x`, `Reader::triplets` for `entries`, `serde_json::write_f64s` for
//! `y`. Piece counts 1 to 8 are forced through the calls the daemon
//! makes with its computed count (`split::piece_count`): the
//! `*_in_pieces` calls over `exec::for_each_chunk`.
//! Reads must match by `to_bits` — values, answer, error text and where
//! the reader stopped — and writes byte for byte, at lengths around the
//! threshold where a second piece starts, over every number layout and
//! whitespace around separators. Arrays with a defect in the first, a
//! middle or the last piece must be read as the one-piece call reads
//! them, and answered by the request parser with the message it owes.

use serde_json::{Pieces, Reader};
use smat_kernels::exec::{for_each_chunk, num_threads};
use smat_service::proto::parse_request;
use smat_service::split::{piece_count, MAX_PIECES, PIECE_BYTES, PIECE_VALUES};
use std::time::Instant;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value in `[-1, 1)`, 53 random bits.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// A number's text in one of the layouts a client writes: integers,
/// exponents either case and sign, 20-digit mantissas, `-0.0`,
/// subnormals, shortest doubles.
fn number(state: &mut u64) -> String {
    let r = splitmix(state);
    match r % 8 {
        0 => format!("{}", (r >> 8) as i32 % 100_000),
        1 => format!("{:e}", unit(state) * 1e-9),
        2 => format!("{}E+{}", (r >> 8) % 1000, (r >> 40) % 200),
        3 => format!(
            "{}.{:019}",
            (r >> 8) % 10,
            (r >> 20) % 10_000_000_000_000_000
        ),
        4 => ["-0.0", "-0", "0.0", "0"][(r >> 8) as usize % 4].to_string(),
        5 => format!("{:?}", f64::from_bits((r >> 12) | 1)),
        _ => format!("{:?}", unit(state)),
    }
}

const SEPARATORS: &[&str] = &[",", ",", ",", ", ", " ,", ",\n\t", "\r\n ,  "];

/// An array of elements made by `element`, with whitespace around some
/// separators, padded with spaces before its `]` to exactly `len` bytes.
fn array_of(len: usize, state: &mut u64, element: impl Fn(&mut u64, usize) -> String) -> String {
    let mut text = String::from("[");
    let mut i = 0;
    loop {
        let sep = if i == 0 {
            ""
        } else {
            SEPARATORS[splitmix(state) as usize % SEPARATORS.len()]
        };
        let next = element(state, i);
        if text.len() + sep.len() + next.len() + 1 > len {
            break;
        }
        text.push_str(sep);
        text.push_str(&next);
        i += 1;
    }
    text.extend(std::iter::repeat_n(' ', len - 1 - text.len()));
    text.push(']');
    text
}

fn x_text(len: usize, seed: u64) -> String {
    array_of(len, &mut { seed }, |state, _| number(state))
}

fn entries_text(len: usize, seed: u64) -> String {
    array_of(len, &mut { seed }, |state, i| {
        format!("[{},{},{}]", i / 3, i % 7, number(state))
    })
}

/// What a read of `x` left: values by bits, the answer or the error,
/// and what `finish` says of where the reader stopped.
type ReadX = (
    Vec<u64>,
    Result<Option<(usize, &'static str)>, String>,
    String,
);

fn rest(mut r: Reader<'_>) -> String {
    r.finish().err().map(|e| e.to_string()).unwrap_or_default()
}

/// Reads `text` with the one-piece call (`None`) or in `count` pieces.
fn read_x(text: &str, count: Option<usize>, pieces: &mut Pieces) -> ReadX {
    let mut r = Reader::new(text);
    let mut out = Vec::new();
    let answer = match count {
        None => r.f64s(&mut out),
        Some(count) => r.f64s_in_pieces(&mut out, count, pieces, &for_each_chunk),
    };
    let bits = out.iter().map(|v| v.to_bits()).collect();
    (bits, answer.map_err(|e| e.to_string()), rest(r))
}

type ReadEntries = (Vec<(usize, usize, u64)>, Result<usize, String>, String);

/// Elements that are not plain triplets, as a caller that reads past
/// them would.
fn skip_other(r: &mut Reader<'_>) -> serde_json::Result<Option<(usize, usize, f64)>> {
    r.skip().map(|_| None)
}

fn read_entries(text: &str, count: Option<usize>, pieces: &mut Pieces) -> ReadEntries {
    let mut r = Reader::new(text);
    let mut out = Vec::new();
    let answer = match count {
        None => r.triplets(&mut out, skip_other),
        Some(count) => r.triplets_in_pieces(&mut out, skip_other, count, pieces, &for_each_chunk),
    };
    let bits = out.iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect();
    (bits, answer.map_err(|e| e.to_string()), rest(r))
}

/// `x` and `entries` texts read alike at every forced piece count and
/// at the computed one.
fn reads_alike(x: &str, entries: &str, pieces: &mut Pieces) {
    let want_x = read_x(x, None, pieces);
    let want_entries = read_entries(entries, None, pieces);
    let computed = |text: &str| piece_count(Reader::new(text).array_reach(), PIECE_BYTES);
    for count in (1..=MAX_PIECES).chain([computed(x)]) {
        assert_eq!(read_x(x, Some(count), pieces), want_x, "x in {count}");
    }
    for count in (1..=MAX_PIECES).chain([computed(entries)]) {
        let got = read_entries(entries, Some(count), pieces);
        assert_eq!(got, want_entries, "entries in {count}");
    }
}

/// The least length that is cut in two, when the pool has two threads.
fn threshold(per_piece: usize) -> usize {
    2 * per_piece
}

#[test]
fn the_piece_count_starts_at_the_threshold() {
    let two = num_threads() >= 2;
    for per_piece in [PIECE_BYTES, PIECE_VALUES] {
        let at = threshold(per_piece);
        assert_eq!(piece_count(0, per_piece), 1);
        assert_eq!(piece_count(at - 1, per_piece), 1);
        assert_eq!(piece_count(at, per_piece), if two { 2 } else { 1 });
        assert_eq!(piece_count(at + 1, per_piece), if two { 2 } else { 1 });
        assert_eq!(
            piece_count(4 * at, per_piece),
            if two { MAX_PIECES } else { 1 }
        );
        assert_eq!(
            piece_count(usize::MAX, per_piece),
            if two { MAX_PIECES } else { 1 }
        );
    }
}

#[test]
fn reads_in_pieces_match_one_piece_around_the_threshold() {
    let mut pieces = Pieces::default();
    let at = threshold(PIECE_BYTES);
    for (seed, len) in [at - 1, at, at + 1, 4 * at].into_iter().enumerate() {
        let (x, entries) = (x_text(len, seed as u64), entries_text(len, !seed as u64));
        assert_eq!(Reader::new(&x).array_reach(), len);
        assert_eq!(Reader::new(&entries).array_reach(), len);
        reads_alike(&x, &entries, &mut pieces);
        // Clean arrays of this length are read in pieces.
        if num_threads() >= 2 && len >= at {
            pieces.take_split_count();
            let _ = read_x(&x, Some(piece_count(len, PIECE_BYTES)), &mut pieces);
            let _ = read_entries(&entries, Some(piece_count(len, PIECE_BYTES)), &mut pieces);
            assert_eq!(pieces.take_split_count(), 2, "length {len}");
        }
    }
}

#[test]
fn writes_in_pieces_match_one_piece_byte_for_byte() {
    let mut pieces = Pieces::default();
    let mut state = 0x5917;
    let at = threshold(PIECE_VALUES);
    for len in [0, 1, 7, at - 1, at, at + 1, 4 * at] {
        let values: Vec<f64> = (0..len)
            .map(|i| match splitmix(&mut state) % 12 {
                0 => -0.0,
                1 => f64::from_bits(splitmix(&mut state) >> 12),
                2 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 3],
                3 => (splitmix(&mut state) % 1_000_000) as f64,
                4 => unit(&mut state) * 1e300,
                5 => unit(&mut state) * 1e-300,
                _ => unit(&mut state),
            })
            .collect();
        let mut want = String::from("{\"y\":[");
        serde_json::write_f64s(&values, &mut want);
        for count in (1..=MAX_PIECES).chain([piece_count(len, PIECE_VALUES)]) {
            let mut got = String::from("{\"y\":[");
            serde_json::write_f64s_in_pieces(
                &values,
                &mut got,
                count,
                &mut pieces,
                &for_each_chunk,
            );
            assert!(got == want, "{len} values in {count} pieces");
        }
    }
}

/// A defect put in the first, a middle or the last piece of a clean
/// array long enough for eight pieces.
const SPOTS: [&str; 3] = ["first", "middle", "last"];

/// Element indices in the first, a middle and the last of eight pieces
/// of an array of `n` elements.
fn spots(n: usize) -> [usize; 3] {
    [n / 16, n / 2 + 1, n - 1 - n / 32]
}

/// The elements of a clean array, split at its separators.
fn elements(text: &str) -> Vec<String> {
    let inner = text
        .trim_end()
        .trim_end_matches(']')
        .trim_start_matches('[');
    inner.split(',').map(str::to_string).collect()
}

fn frame_with_x(x: &str) -> String {
    format!("{{\"op\":\"spmv\",\"handle\":\"h1:1:3:4:5:7:9\",\"x\":{x}}}")
}

/// The tree parser's words for a syntax error.
fn tree_error(frame: &str) -> String {
    format!(
        "invalid JSON: {}",
        serde_json::parse(frame).expect_err("a syntax error")
    )
}

#[test]
fn a_defect_in_any_piece_of_x_reads_as_one_piece_does() {
    let mut pieces = Pieces::default();
    let clean = elements(&x_text(4 * threshold(PIECE_BYTES), 0xD1));
    let n = clean.len();
    for (spot, at) in SPOTS.iter().zip(spots(n)) {
        let defects: [(&str, Option<&str>); 8] = [
            ("\"a,b\"", Some("is not a number")),
            ("\"]\"", Some("is not a number")),
            ("[1,2]", Some("is not a number")),
            ("[]", Some("is not a number")),
            ("1e400", Some("is not finite")),
            ("-1e400", Some("is not finite")),
            ("null", Some("is not a number")),
            ("", None),
        ];
        for (defect, words) in defects {
            let mut e = clean.clone();
            e[at] = defect.to_string();
            let x = format!("[{}]", e.join(","));
            reads_alike(&x, &entries_text(64, 1), &mut pieces);
            let frame = frame_with_x(&x);
            let want = match words {
                Some(words) => format!("x[{at}] {words}"),
                None => tree_error(&frame),
            };
            let got = parse_request(&frame).expect_err("a defect");
            assert_eq!(got, want, "{defect:?} in the {spot} piece");
        }
    }
    // A trailing comma ends the last piece.
    let x = format!("[{},]", clean.join(","));
    reads_alike(&x, "[]", &mut pieces);
    let frame = frame_with_x(&x);
    assert_eq!(
        parse_request(&frame).expect_err("trailing comma"),
        tree_error(&frame)
    );
    // A clean `x` of the same length is read, in pieces.
    let frame = frame_with_x(&format!("[{}]", clean.join(",")));
    let message = parse_request(&frame).expect_err("x is too long for the handle");
    assert_eq!(
        message,
        format!("\"x\" has {n} entries but the matrix has 4 columns")
    );
}

#[test]
fn a_defect_in_any_piece_of_entries_reads_as_one_piece_does() {
    let mut pieces = Pieces::default();
    // A diagonal: entry `i` is `(i, i)`.
    let mut state = 0xE7;
    let clean: Vec<String> = (0..4 * threshold(PIECE_BYTES) / 24)
        .map(|i| format!("[{i},{i},{}]", number(&mut state)))
        .collect();
    let n = clean.len();
    let frame = |entries: &[String]| {
        format!(
            "{{\"op\":\"tune\",\"matrix\":{{\"rows\":{n},\"cols\":{n},\"entries\":[{}]}}}}",
            entries.join(",")
        )
    };
    assert!(parse_request(&frame(&clean)).is_ok());
    for (spot, at) in SPOTS.iter().zip(spots(n)) {
        let defects: [(String, Option<String>); 9] = [
            (
                format!("[{at},\"a,b\",1]"),
                Some("col is not an integer".into()),
            ),
            (
                format!("[\"]\",{at},1]"),
                Some("row is not an integer".into()),
            ),
            (
                format!("[[{at}],{at},1]"),
                Some("row is not an integer".into()),
            ),
            (
                format!("[{at},{at},[1,2]]"),
                Some("value is not a number".into()),
            ),
            (
                format!("[{at},{at},1e400]"),
                Some("value is not finite".into()),
            ),
            (
                format!("[{at},{at},null]"),
                Some("value is not a number".into()),
            ),
            (
                "null".into(),
                Some("must be a [row, col, value] triplet".into()),
            ),
            (
                format!("[{at},{n},1]"),
                Some(format!("= ({at}, {n}) outside 0..{n} x 0..{n}")),
            ),
            (format!("[{at},{at},1,]"), None),
        ];
        for (defect, words) in defects {
            let mut e = clean.clone();
            e[at] = defect.clone();
            let text = format!("[{}]", e.join(","));
            reads_alike(&x_text(64, 1), &text, &mut pieces);
            let frame = frame(&e);
            let want = match words {
                Some(words) => format!("entries[{at}] {words}"),
                None => tree_error(&frame),
            };
            let got = parse_request(&frame).expect_err("a defect");
            assert_eq!(got, want, "{defect} in the {spot} piece");
        }
        // A repeat of an earlier coordinate: a plain triplet, read in
        // pieces, and caught at assembly.
        let mut e = clean.clone();
        e[at] = "[0,0,2.5]".to_string();
        reads_alike(&x_text(64, 1), &format!("[{}]", e.join(",")), &mut pieces);
        let want = format!("entries[{at}] duplicates (0, 0) first given at entries[0]");
        assert_eq!(parse_request(&frame(&e)).expect_err("a duplicate"), want);
    }
    // A trailing comma ends the last piece.
    let text = format!("[{},]", clean.join(","));
    reads_alike(&x_text(64, 1), &text, &mut pieces);
    let trailing = frame(&clean).replace("]]}}", "],]}}");
    assert_eq!(
        parse_request(&trailing).expect_err("trailing comma"),
        tree_error(&trailing)
    );
}

/// Nanoseconds per value of `run`, best of `reps` calls.
fn ns_per_value(values: usize, reps: usize, mut run: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    best * 1e9 / values as f64
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// The speed claim's gate: a 24 000-value array — an `spmm` block of
/// four 6 000-value columns, shortest doubles in `[-1, 1)` — is written
/// and read in the daemon's computed piece count at least 1.25 times as
/// fast as in one piece. Blocks of calls alternate between the two;
/// each side's median block decides. Prints ns per value at every piece
/// count. A pool of one thread cannot split and skips the gate.
#[test]
#[ignore = "timing gate; meaningful in release, run with --include-ignored"]
fn pieces_are_at_least_a_quarter_faster_than_one_piece() {
    const VALUES: usize = 24_000;
    const BLOCKS: usize = 15;
    const CALLS: usize = 10;
    if num_threads() < 2 {
        println!(
            "split wire gate skipped: the pool has {} thread",
            num_threads()
        );
        return;
    }
    let mut state = 0x24_000;
    let values: Vec<f64> = (0..VALUES).map(|_| unit(&mut state)).collect();
    let mut text = String::from("[");
    serde_json::write_f64s(&values, &mut text);
    text.push(']');
    let mut pieces = Pieces::default();
    let (mut line, mut x) = (String::new(), Vec::new());
    let mut encode = |count: usize| {
        line.clear();
        serde_json::write_f64s_in_pieces(&values, &mut line, count, &mut pieces, &for_each_chunk);
    };
    let mut pieces_read = Pieces::default();
    let mut parse = |count: usize| {
        x.clear();
        let mut r = Reader::new(&text);
        r.f64s_in_pieces(&mut x, count, &mut pieces_read, &for_each_chunk)
            .expect("an array");
    };
    println!(
        "pieces  encode ns/value  parse ns/value  ({VALUES} values, {} threads)",
        num_threads()
    );
    for count in 1..=MAX_PIECES {
        let e = ns_per_value(VALUES, 30, || encode(count));
        let p = ns_per_value(VALUES, 30, || parse(count));
        println!("{count:>6}  {e:>15.1}  {p:>14.1}");
    }
    let encode_count = piece_count(VALUES, PIECE_VALUES);
    let parse_count = piece_count(text.len(), PIECE_BYTES);
    let block = |run: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..CALLS {
            run();
        }
        start.elapsed().as_secs_f64()
    };
    let (mut one, mut split) = ([Vec::new(), Vec::new()], [Vec::new(), Vec::new()]);
    for _ in 0..BLOCKS {
        one[0].push(block(&mut || encode(1)));
        split[0].push(block(&mut || encode(encode_count)));
        one[1].push(block(&mut || parse(1)));
        split[1].push(block(&mut || parse(parse_count)));
    }
    let mut checked = Vec::new();
    Reader::new(&text)
        .f64s_in_pieces(
            &mut checked,
            parse_count,
            &mut Pieces::default(),
            &for_each_chunk,
        )
        .unwrap();
    assert_eq!(checked.len(), VALUES);
    assert!(checked
        .iter()
        .zip(&values)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    let [encode_one, parse_one] = one.map(median);
    let [encode_split, parse_split] = split.map(median);
    let (encode_ratio, parse_ratio) = (encode_one / encode_split, parse_one / parse_split);
    println!(
        "encode: one piece {:.1} ns/value, {encode_count} pieces {:.1} ({encode_ratio:.2}x); \
         parse: one piece {:.1} ns/value, {parse_count} pieces {:.1} ({parse_ratio:.2}x)",
        encode_one * 1e9 / (CALLS * VALUES) as f64,
        encode_split * 1e9 / (CALLS * VALUES) as f64,
        parse_one * 1e9 / (CALLS * VALUES) as f64,
        parse_split * 1e9 / (CALLS * VALUES) as f64,
    );
    assert!(encode_ratio >= 1.25, "encode in pieces: {encode_ratio:.2}x");
    assert!(parse_ratio >= 1.25, "parse in pieces: {parse_ratio:.2}x");
}
