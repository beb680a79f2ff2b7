//! The JSONL codec for trace events: a fixed-key-order writer and a
//! parser for the exact dialect the writer emits, so traces
//! round-trip — the property the determinism proptests and the CI
//! trace validator check. Both halves sit on `bcc-json`.

use crate::event::{Event, EventKind, FieldValue};
use bcc_json::{write_str, JsonValue};
use std::fmt::Write as _;

impl FieldValue {
    /// This value as a JSON literal. Unsigned and signed integers get
    /// distinct literals (`u:` has no sign, negative `Int`s do), but
    /// a non-negative `Int` and a `UInt` serialize identically — the
    /// parser resolves that ambiguity in favour of `UInt`, which is
    /// why [`parse_event`] documents value-level (not variant-level)
    /// round-tripping.
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::Int(v) => v.to_string(),
            FieldValue::UInt(v) => v.to_string(),
            FieldValue::Float(v) => format!("{v:?}"),
            FieldValue::Bool(v) => v.to_string(),
            FieldValue::Str(v) => bcc_json::quote(v),
        }
    }
}

/// Renders one event as a single-line JSON object with a fixed key
/// order (`unit`, `seq`, `path`, `kind`, `name`, `fields`).
pub fn event_to_json(e: &Event) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"unit\":");
    write_str(&mut out, &e.unit);
    let _ = write!(out, ",\"seq\":{}", e.seq);
    out.push_str(",\"path\":");
    write_str(&mut out, &e.path);
    out.push_str(",\"kind\":");
    write_str(&mut out, e.kind.tag());
    out.push_str(",\"name\":");
    write_str(&mut out, &e.name);
    out.push_str(",\"fields\":");
    write_fields(&mut out, &e.fields);
    out.push('}');
    out
}

/// Appends `fields` as one JSON object, in order.
pub fn write_fields(out: &mut String, fields: &[(String, FieldValue)]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, k);
        out.push(':');
        out.push_str(&v.to_json());
    }
    out.push('}');
}

/// A JSONL parse failure: what went wrong and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the line of a syntax error; 0 when a
    /// well-formed object has the wrong keys or value types.
    pub at: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace JSONL parse error at byte {}: {}",
            self.at, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses one line produced by [`event_to_json`].
///
/// Round-trip guarantee: `parse_event(event_to_json(e))` equals `e`
/// up to the `Int`/`UInt` representation of non-negative integers
/// (both serialize as bare digits; the parser yields `UInt`).
///
/// # Errors
///
/// Returns a [`ParseError`] on any structural deviation from the
/// writer's dialect.
pub fn parse_event(line: &str) -> Result<Event, ParseError> {
    let value = bcc_json::parse(line).map_err(|e| ParseError {
        at: e.at,
        message: e.message,
    })?;
    let fail = |message: String| ParseError { at: 0, message };
    let JsonValue::Obj(members) = value else {
        return Err(fail("an event must be a JSON object".to_string()));
    };
    let mut unit = None;
    let mut seq = None;
    let mut path = None;
    let mut kind = None;
    let mut name = None;
    let mut fields = None;
    for (key, v) in members {
        let text = |v: JsonValue| match v {
            JsonValue::Str(s) => Ok(s),
            other => Err(fail(format!("{key} must be a string, got {other:?}"))),
        };
        match key.as_str() {
            "unit" => unit = Some(text(v)?),
            "seq" => match v {
                JsonValue::UInt(n) => seq = Some(n),
                other => {
                    return Err(fail(format!(
                        "seq must be an unsigned integer, got {other:?}"
                    )))
                }
            },
            "path" => path = Some(text(v)?),
            "kind" => {
                let tag = text(v)?;
                kind = Some(
                    EventKind::from_tag(&tag)
                        .ok_or_else(|| fail(format!("unknown event kind {tag:?}")))?,
                );
            }
            "name" => name = Some(text(v)?),
            "fields" => {
                let JsonValue::Obj(members) = v else {
                    return Err(fail(format!("fields must be an object, got {v:?}")));
                };
                let mut parsed = Vec::with_capacity(members.len());
                for (k, fv) in members {
                    let value = match fv {
                        JsonValue::UInt(n) => FieldValue::UInt(n),
                        JsonValue::Int(n) => FieldValue::Int(n),
                        JsonValue::Float(x) => FieldValue::Float(x),
                        JsonValue::Bool(b) => FieldValue::Bool(b),
                        JsonValue::Str(s) => FieldValue::Str(s),
                        other => {
                            return Err(fail(format!(
                                "field {k:?} must be a scalar, got {other:?}"
                            )))
                        }
                    };
                    parsed.push((k, value));
                }
                fields = Some(parsed);
            }
            other => return Err(fail(format!("unexpected key {other:?}"))),
        }
    }
    let missing = |what: &str| ParseError {
        at: line.len(),
        message: format!("missing key {what:?}"),
    };
    Ok(Event {
        unit: unit.ok_or_else(|| missing("unit"))?,
        seq: seq.ok_or_else(|| missing("seq"))?,
        path: path.ok_or_else(|| missing("path"))?,
        kind: kind.ok_or_else(|| missing("kind"))?,
        name: name.ok_or_else(|| missing("name"))?,
        fields: fields.ok_or_else(|| missing("fields"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;

    fn sample() -> Event {
        Event {
            unit: "e1/n=27 t=0 \"quoted\"".into(),
            seq: 12,
            path: "round=3/node=7".into(),
            kind: EventKind::Point,
            name: "broadcast".into(),
            fields: vec![
                field("bit", true),
                field("n", 27usize),
                field("delta", -4i64),
                field("err", 0.25),
                field("label", "a\nb"),
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let e = sample();
        let parsed = parse_event(&event_to_json(&e)).unwrap();
        assert_eq!(parsed, e);
    }

    #[test]
    fn integral_floats_keep_their_point() {
        let mut e = sample();
        e.fields = vec![field("x", 2.0f64)];
        let json = event_to_json(&e);
        assert!(json.contains("\"x\":2.0"), "json: {json}");
        assert_eq!(
            parse_event(&json).unwrap().fields[0].1,
            FieldValue::Float(2.0)
        );
    }

    #[test]
    fn empty_fields_parse() {
        let mut e = sample();
        e.fields.clear();
        assert_eq!(parse_event(&event_to_json(&e)).unwrap(), e);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_event("not json").is_err());
        assert!(parse_event("{\"unit\":\"u\"}").is_err(), "missing keys");
        assert!(parse_event(&(event_to_json(&sample()) + "x")).is_err());
    }

    #[test]
    fn rejects_shape_violations() {
        let ok = r#"{"unit":"u","seq":1,"path":"","kind":"point","name":"n","fields":{"a":1}}"#;
        assert!(parse_event(ok).is_ok());
        for (from, to) in [
            (r#""seq":1"#, r#""seq":-1"#),
            (r#""seq":1"#, r#""seq":1.0"#),
            (r#""kind":"point""#, r#""kind":"nope""#),
            (r#""name":"n""#, r#""name":7"#),
            (r#""name":"n""#, r#""extra":"n""#),
            (r#""a":1"#, r#""a":null"#),
            (r#""a":1"#, r#""a":[1]"#),
            (r#""a":1"#, r#""a":{}"#),
            (r#""fields":{"a":1}"#, r#""fields":[]"#),
        ] {
            let bad = ok.replace(from, to);
            assert!(parse_event(&bad).is_err(), "accepted {bad}");
        }
        assert!(parse_event("[]").is_err());
    }

    #[test]
    fn negative_and_large_integers() {
        let mut e = sample();
        e.fields = vec![field("a", i64::MIN), field("b", u64::MAX)];
        let parsed = parse_event(&event_to_json(&e)).unwrap();
        assert_eq!(parsed.fields[0].1, FieldValue::Int(i64::MIN));
        assert_eq!(parsed.fields[1].1, FieldValue::UInt(u64::MAX));
    }
}
