//! The daemon's JSON codec, which lives in [`srclda_obs::json`] so the
//! training JSONL stream and the HTTP bodies share one parser and writer.
//! This path stays for the daemon's callers (load generators, the
//! benchmark harness, the root tests); the tests below pin the codec as
//! they import it.

pub use srclda_obs::json::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("false").unwrap(), Value::Bool(false));
        assert_eq!(parse("3.25").unwrap(), Value::Num(3.25));
        assert_eq!(parse("-4e2").unwrap(), Value::Num(-400.0));
        assert_eq!(parse("\"hi\"").unwrap(), Value::Str("hi".into()));
    }

    #[test]
    fn parses_structures() {
        let v = parse(r#" {"a": [1, 2, {"b": "c"}], "d": null} "#).unwrap();
        assert_eq!(v.get("d"), Some(&Value::Null));
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].get("b").unwrap().as_str(), Some("c"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "", "{", "[1,", "{\"a\"}", "{a: 1}", "1 2", "nul", "\"\\q\"", "\"", "01x", "--1", "1.",
            "+1", "[1]]",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn rejects_pathological_nesting() {
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = "tab\t quote\" slash\\ newline\n unicode\u{1F600}\u{7}";
        let rendered = Value::Str(original.into()).render();
        assert_eq!(parse(&rendered).unwrap().as_str(), Some(original));
        // Escaped-form input parses too.
        assert_eq!(
            parse(r#""\u0041\ud83d\ude00\/""#).unwrap().as_str(),
            Some("A\u{1F600}/")
        );
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        // The property the loopback θ diff-check relies on.
        let mut seed = 0x9e3779b97f4a7c15u64;
        for _ in 0..2000 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (seed >> 11) as f64 / (1u64 << 53) as f64; // [0, 1) like θ
            let rendered = Value::Num(x).render();
            let back = parse(&rendered).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{x} → {rendered}");
        }
        for x in [0.0, 1.0, -1.5, f64::MIN_POSITIVE, f64::MAX, -12345.678e-9] {
            let back = parse(&Value::Num(x).render()).unwrap().as_f64().unwrap();
            assert_eq!(x.to_bits(), back.to_bits());
        }
        // Non-finite values degrade to null instead of invalid JSON.
        assert_eq!(Value::Num(f64::NAN).render(), "null");
        assert_eq!(Value::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn as_usize_accepts_only_exact_non_negative_integers() {
        assert_eq!(Value::Num(3.0).as_usize(), Some(3));
        assert_eq!(Value::Num(0.0).as_usize(), Some(0));
        assert_eq!(Value::Num(3.5).as_usize(), None);
        assert_eq!(Value::Num(-1.0).as_usize(), None);
        assert_eq!(Value::Str("3".into()).as_usize(), None);
    }

    #[test]
    fn object_helpers() {
        let v = obj(vec![("x", Value::from(1usize)), ("y", Value::from("z"))]);
        assert_eq!(v.get("x").unwrap().as_usize(), Some(1));
        assert_eq!(v.get("y").unwrap().as_str(), Some("z"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Null.get("x"), None);
        assert_eq!(v.render(), r#"{"x":1,"y":"z"}"#);
    }
}
