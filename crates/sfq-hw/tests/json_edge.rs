//! Edge-case tests for the in-repo JSON serializer/parser.
//!
//! The happy paths are covered by the unit tests in `sfq_hw::json`; this
//! suite pins the corners every golden file and report reader leans on:
//! escape handling, unicode, non-finite floats, deep nesting (and the
//! depth bound that keeps hostile input from overflowing the stack),
//! duplicate keys, and the 2⁵³ exact-integer boundary of `count_field`.

use sfq_hw::json::{Json, ToJson, MAX_DEPTH};

#[test]
fn escapes_round_trip_through_render_and_parse() {
    let tricky = "quote:\" back:\\ slash:/ nl:\n cr:\r tab:\t nul-adjacent:\u{1}\u{1f}";
    let j = tricky.to_json();
    let text = j.render();
    // Control characters must never appear raw in the rendering.
    assert!(!text.contains('\n'));
    assert!(!text.contains('\u{1}'));
    assert_eq!(Json::parse(&text).unwrap(), j);
}

#[test]
fn unicode_passes_through_unescaped_and_by_escape() {
    // Multi-byte UTF-8 renders raw and survives the round trip.
    let s = "ψ⟩ → ±π ≤ 2⁵³ 😀";
    let j = s.to_json();
    assert_eq!(Json::parse(&j.render()).unwrap(), j);
    // \u escapes parse to the same string as the raw character.
    assert_eq!(
        Json::parse(r#""\u03c8""#).unwrap(),
        Json::Str("ψ".to_string())
    );
    // An escaped solidus is legal JSON even though we never emit it.
    assert_eq!(Json::parse(r#""\/""#).unwrap(), Json::Str("/".to_string()));
    // \b and \f parse to their control characters.
    assert_eq!(
        Json::parse(r#""\b\f""#).unwrap(),
        Json::Str("\u{8}\u{c}".to_string())
    );
    // A lone surrogate cannot be a char; the parser substitutes U+FFFD
    // rather than erroring (our writer never produces surrogates).
    assert_eq!(
        Json::parse(r#""\ud800""#).unwrap(),
        Json::Str("\u{FFFD}".to_string())
    );
    // Malformed \u escapes are rejected.
    assert!(Json::parse(r#""\uZZZZ""#).is_err());
    assert!(Json::parse(r#""\u12""#).is_err());
}

#[test]
fn non_finite_floats_serialize_as_null_and_never_parse_back() {
    assert_eq!(f64::NAN.to_json_string(), "null");
    assert_eq!(f64::INFINITY.to_json_string(), "null");
    assert_eq!(f64::NEG_INFINITY.to_json_string(), "null");
    // The textual forms some writers emit are not valid JSON here.
    for text in ["NaN", "Infinity", "-Infinity", "inf", "nan"] {
        assert!(Json::parse(text).is_err(), "`{text}` must be rejected");
    }
    // A non-finite number nested in a report degrades to null, so readers
    // see a missing numeric field, not a poisoned value.
    let j = Json::obj([("x", f64::NAN.to_json())]);
    let parsed = Json::parse(&j.render()).unwrap();
    assert_eq!(parsed.get("x"), Some(&Json::Null));
    assert!(parsed.num_field("x", "t").is_err());
}

#[test]
fn deep_nesting_round_trips() {
    // 200 levels of arrays plus 200 levels of objects: comfortably beyond
    // any report we emit, well within parser recursion limits.
    let mut j = Json::Num(1.0);
    for _ in 0..200 {
        j = Json::Arr(vec![j]);
    }
    for _ in 0..200 {
        j = Json::obj([("k", j)]);
    }
    let compact = j.render();
    assert_eq!(Json::parse(&compact).unwrap(), j);
    let pretty = j.render_pretty(1);
    assert_eq!(Json::parse(&pretty).unwrap(), j);
}

#[test]
fn nesting_is_accepted_up_to_max_depth_and_rejected_past_it() {
    let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&arrays(MAX_DEPTH)).is_ok());
    let err = Json::parse(&arrays(MAX_DEPTH + 1)).unwrap_err();
    assert_eq!(err.msg, "nesting too deep");
    assert_eq!(err.at, MAX_DEPTH);
    // Objects and mixed nesting count the same levels.
    let objects = |n: usize| format!("{}1{}", r#"{"k":"#.repeat(n), "}".repeat(n));
    assert!(Json::parse(&objects(MAX_DEPTH)).is_ok());
    assert!(Json::parse(&objects(MAX_DEPTH + 1)).is_err());
    let mixed = format!("{}{}", r#"[{"k":"#.repeat(MAX_DEPTH / 2 + 1), "x");
    assert_eq!(
        Json::parse(&mixed).unwrap_err().msg,
        "nesting too deep",
        "the bound must trip before the malformed tail is reached"
    );
}

#[test]
fn hostile_deep_document_fails_closed_on_a_small_stack() {
    // 100,000 unclosed arrays: 100 KB of input, far under any frame or
    // file cap. Unbounded recursive descent overflows the stack and
    // aborts the process; the bounded parser returns an error. Run on a
    // thread with the default 2 MiB spawned-thread stack so the test does
    // not depend on the runner's main-thread stack size.
    let doc = "[".repeat(100_000);
    let result = std::thread::Builder::new()
        .stack_size(2 << 20)
        .spawn(move || Json::parse(&doc).map(|_| ()))
        .unwrap()
        .join()
        .expect("parser thread must not crash");
    assert_eq!(result.unwrap_err().msg, "nesting too deep");
}

#[test]
fn duplicate_keys_parse_and_first_wins_on_lookup() {
    let j = Json::parse(r#"{"a":1,"a":2,"b":3}"#).unwrap();
    // Both pairs are preserved (insertion order)…
    match &j {
        Json::Obj(pairs) => {
            assert_eq!(pairs.len(), 3);
            assert_eq!(pairs[0], ("a".to_string(), Json::Num(1.0)));
            assert_eq!(pairs[1], ("a".to_string(), Json::Num(2.0)));
        }
        _ => panic!("expected object"),
    }
    // …and `get` (hence every report reader) sees the first occurrence.
    assert_eq!(j.get("a").and_then(Json::as_f64), Some(1.0));
    assert_eq!(j.num_field("a", "t"), Ok(1.0));
}

#[test]
fn count_field_boundaries_at_two_to_the_53() {
    const MAX_EXACT: f64 = 9_007_199_254_740_991.0; // 2⁵³ − 1
    let j = Json::obj([
        ("max", Json::Num(MAX_EXACT)),
        ("limit", Json::Num(MAX_EXACT + 1.0)), // 2⁵³: first lossy value
        ("past", Json::Num((MAX_EXACT + 1.0) * 2.0)),
        ("neg_zero", Json::Num(-0.0)),
        ("tiny_frac", Json::Num(0.5)),
    ]);
    // 2⁵³ − 1 is the largest accepted count…
    assert_eq!(j.count_field("max", "t"), Ok((1 << 53) - 1));
    // …2⁵³ and beyond are rejected (they no longer round-trip exactly).
    assert!(j.count_field("limit", "t").is_err());
    assert!(j.count_field("past", "t").is_err());
    // −0.0 is a valid zero count; fractions are rejected.
    assert_eq!(j.count_field("neg_zero", "t"), Ok(0));
    assert!(j.count_field("tiny_frac", "t").is_err());

    // The boundary survives a text round trip: 2⁵³ − 1 rendered and
    // re-parsed still reads back as the exact integer.
    let text = Json::obj([("c", Json::Num(MAX_EXACT))]).render();
    assert!(text.contains("9007199254740991"));
    let back = Json::parse(&text).unwrap();
    assert_eq!(back.count_field("c", "t"), Ok((1 << 53) - 1));
}

#[test]
fn num_field_accepts_what_count_field_rejects() {
    let j = Json::obj([
        ("big", Json::Num(1.0e18)),
        ("neg", Json::Num(-4.5)),
        ("frac", Json::Num(0.25)),
    ]);
    for k in ["big", "neg", "frac"] {
        assert!(j.num_field(k, "t").is_ok(), "num_field must accept `{k}`");
        assert!(
            j.count_field(k, "t").is_err(),
            "count_field must reject `{k}`"
        );
    }
}

#[test]
fn parser_rejects_structural_garbage() {
    for text in [
        "",
        "   ",
        "{\"a\"}",
        "{\"a\":}",
        "{:1}",
        "[1 2]",
        "{\"a\":1,}",
        "tru",
        "+",
        "--1",
        "1e",
        "\"\\",
        "[\"\\q\"]",
    ] {
        assert!(Json::parse(text).is_err(), "`{text}` must be rejected");
    }
    // Errors carry a byte offset and render through Display.
    let err = Json::parse("{\"a\":@}").unwrap_err();
    assert!(err.to_string().contains("byte"));
}
