//! The reply writer, `serde_json::write_f64s`, against std: a slice of
//! floats is written as each value's `{:?}` text (`null` where it is not
//! finite) joined by commas. Every `y` a reply carries goes through it.
//!
//! The values cover each layout `{:?}` has at every digit count it can
//! take there, both signs:
//! - scientific below `1e-4` and from `1e16` on, 1 to 17 digits;
//! - a fraction below one (`0.0…d`), 1 to 17 digits;
//! - a point inside the digits, 2 to 17 digits;
//! - a whole number (`d…0.0`), 1 to 16 digits.
//!
//! Then the edges: `-0.0`, subnormals, `1e16` and the float below
//! `1e-4`, one digit tie from each band that has them, non-finite values
//! among finite ones, and the empty and one-element slices.

/// The `{:?}` layouts, told apart by the text.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Layout {
    Scientific,
    Fraction,
    Point,
    Whole,
}

/// The layout of `text` (a finite `{:?}`) and its significant digits.
fn classify(text: &str) -> (Layout, usize) {
    let text = text.trim_start_matches('-');
    if let Some((mantissa, _)) = text.split_once('e') {
        return (Layout::Scientific, mantissa.replace('.', "").len());
    }
    let (whole, fraction) = text.split_once('.').expect("a point");
    if whole == "0" {
        (Layout::Fraction, fraction.trim_start_matches('0').len())
    } else if fraction == "0" {
        (Layout::Whole, whole.trim_end_matches('0').len())
    } else {
        (Layout::Point, whole.len() + fraction.len())
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What std makes of `values`, joined as the writer joins them.
fn expected(values: &[f64]) -> String {
    values
        .iter()
        .map(|f| {
            if f.is_finite() {
                format!("{f:?}")
            } else {
                "null".to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// `values` written after `prefix` is `prefix` and std's text.
fn assert_written(prefix: &str, values: &[f64]) {
    let mut out = String::from(prefix);
    serde_json::write_f64s(values, &mut out);
    let want = format!("{prefix}{}", expected(values));
    if out != want {
        // Name the first value that differs, not just the long line.
        for &f in values {
            let mut one = String::new();
            serde_json::write_f64s(&[f], &mut one);
            assert_eq!(one, expected(&[f]), "bits {:#018x}", f.to_bits());
        }
        assert_eq!(out, want);
    }
}

/// Floats of every layout and digit count: decimals of `n` random
/// digits at exponents across the layouts (exact up to 15 digits), and
/// random doubles at those magnitudes for the 16- and 17-digit texts.
fn layout_values() -> Vec<f64> {
    let mut state = 0x7E47;
    let mut values = Vec::new();
    for exponent in [
        -30, -20, -7, -5, -4, -3, -1, 0, 1, 3, 8, 15, 16, 17, 25, 300,
    ] {
        for n in 1..=15u32 {
            for _ in 0..4 {
                // `n` digits, the first standing at `10^exponent`.
                let digits = 10u64.pow(n - 1) + splitmix(&mut state) % (9 * 10u64.pow(n - 1));
                let text = format!("{digits}e{}", exponent - n as i32 + 1);
                values.push(text.parse::<f64>().unwrap());
            }
        }
        let scale: f64 = format!("1e{exponent}").parse().unwrap();
        for _ in 0..64 {
            let unit = 1.0 + (splitmix(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * 9.0;
            values.push(unit * scale);
        }
    }
    let mut signed: Vec<f64> = values.iter().flat_map(|&f| [f, -f]).collect();
    signed.retain(|f| f.is_finite() && *f != 0.0);
    signed
}

#[test]
fn every_layout_at_every_digit_count_is_written_as_std_writes_it() {
    let values = layout_values();
    let mut covered = std::collections::BTreeSet::new();
    for &f in &values {
        let (layout, digits) = classify(&format!("{f:?}"));
        covered.insert((layout, digits, f.is_sign_negative()));
    }
    for negative in [false, true] {
        for (layout, lengths) in [
            (Layout::Scientific, 1..=17),
            (Layout::Fraction, 1..=17),
            (Layout::Point, 2..=17),
            (Layout::Whole, 1..=16),
        ] {
            for n in lengths {
                assert!(
                    covered.contains(&(layout, n, negative)),
                    "no {layout:?} value with {n} digits (negative: {negative})"
                );
            }
        }
    }
    assert_written("", &values);
    // Appended after what the line already holds.
    assert_written("{\"y\":[", &values[..100]);
}

/// One tie per band: an odd multiple of `2^-(s+1)` with spacing
/// `2^-(s+m)`, `5^(s-1) < 2^m < 5^s`, is halfway between two `s`-place
/// decimals with no shorter one in reach, and std writes the larger.
/// Its mantissa here is `2^52 + 2^(m-1)`. Of the powers of two only
/// `2^-25` ties.
fn ties() -> Vec<f64> {
    let mut ties = vec![1.0 / (1u64 << 25) as f64];
    for s in 1..=23u32 {
        for m in (1..=52u32).filter(|&m| 5u64.pow(s - 1) < 1 << m && 1 << m < 5u64.pow(s)) {
            let exponent = u64::from(1023 + 52 - s - m);
            ties.push(f64::from_bits(exponent << 52 | 1 << (m - 1)));
        }
    }
    assert_eq!(ties.len(), 53, "52 bands and 2^-25");
    ties
}

#[test]
fn edges_ties_and_non_finite_values_are_written_as_std_writes_them() {
    let mut state = 0x5B;
    let mut values = vec![
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::from_bits((1 << 52) - 1),
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        1e16,
        -1e16,
        9.999999999999999e-5,
        1e-4,
        9007199254740993.0,
    ];
    values.extend((0..32).map(|_| f64::from_bits(splitmix(&mut state) & ((1 << 52) - 1))));
    values.extend(ties().into_iter().flat_map(|f| [f, -f]));
    // Non-finite values among finite ones, and at both ends.
    let mut mixed = vec![f64::NAN];
    for (k, &f) in values.iter().enumerate() {
        mixed.push(f);
        if k % 5 == 0 {
            mixed.push([f64::INFINITY, f64::NEG_INFINITY, f64::NAN][k % 3]);
        }
    }
    mixed.push(f64::NEG_INFINITY);
    assert_written("", &mixed);
    assert!(expected(&mixed).contains(",null,"));
}

#[test]
fn empty_and_one_element_slices() {
    assert_written("", &[]);
    assert_written("[", &[]);
    for f in [0.5, -1e300, f64::NAN, 123.0, -0.0] {
        assert_written("", &[f]);
        assert_written("[1.0,", &[f]);
    }
}
