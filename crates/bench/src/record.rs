//! The flat-record JSON codec behind every `motif-bench *-json` file.
//!
//! Every series writes the same layout: an optional schema tag, the
//! recording host's parallelism, an optional host warning, and a `points`
//! array with one flat object per line:
//!
//! ```text
//! {
//!   "schema": "motif-bench chaos-json v1",
//!   "host_parallelism": 1,
//!   "points": [
//!     {"scenario": "clean", "threads": 2, "overhead": 1.0000},
//!     {"scenario": "kill", "threads": 2, "overhead": 1.2133}
//!   ]
//! }
//! ```
//!
//! A series is a [`Record`] type, declared with `flat_record!` as one
//! line per field. The header is plain data ([`Header`]), so a committed
//! snapshot re-renders byte for byte.
//!
//! Parsing is hand-rolled (the workspace vendors no JSON crate) and
//! deliberately strict: the schema tag must match the series, every field
//! must be present, and the parsed file must re-render to exactly the input.
//! A field the renderer stops emitting, renames or reorders therefore fails
//! the parse instead of passing silently.

use std::fmt::Write;
use std::str::FromStr;

/// The field kinds `flat_record!` accepts. Each renders a value as it
/// appears in the file.
pub mod field {
    /// A JSON string. Bench names never need escapes, so none are written.
    pub fn str(value: &str) -> String {
        format!("\"{value}\"")
    }

    /// An unsigned integer.
    pub fn int(value: &(impl Copy + Into<u64>)) -> String {
        (*value).into().to_string()
    }

    /// A float with a fixed number of decimals.
    pub fn fixed(value: &f64, decimals: usize) -> String {
        format!("{value:.decimals$}")
    }
}

/// A row type of one `*-json` series. Implement it with `flat_record!`.
pub trait Record: Sized {
    /// The schema tag written at the top of the file. `None` for a series
    /// whose committed snapshot predates schema tags.
    const SCHEMA: Option<&'static str>;

    /// The row's fields, in file order, with their rendered values.
    fn fields(&self) -> Vec<(&'static str, String)>;

    /// Rebuild a row from one parsed line.
    fn from_fields(fields: &Fields<'_>) -> Result<Self, String>;
}

/// Implement [`Record`] for a struct from its schema tag and one line per
/// field, in file order: `name: str`, `name: int` or `name: fixed(decimals)`.
/// Rendering and parsing both come from that one list, so they cannot drift
/// apart.
macro_rules! flat_record {
    ($ty:ident, $schema:expr, { $($field:ident: $kind:ident $(($decimals:literal))?),+ $(,)? }) => {
        impl $crate::record::Record for $ty {
            const SCHEMA: Option<&'static str> = $schema;

            fn fields(&self) -> Vec<(&'static str, String)> {
                vec![$((
                    stringify!($field),
                    $crate::record::field::$kind(&self.$field $(, $decimals)?),
                )),+]
            }

            fn from_fields(f: &$crate::record::Fields<'_>) -> Result<Self, String> {
                Ok($ty { $($field: f.$kind(stringify!($field))?),+ })
            }
        }
    };
}
pub(crate) use flat_record;

/// The header fields every series file carries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Header {
    pub host_parallelism: usize,
    /// An in-band caveat for readers of the file, e.g. that speedups
    /// recorded on one core are not parallel speedups.
    pub host_warning: Option<String>,
}

impl Header {
    /// The header for a recording made on this host, without a warning.
    pub fn this_host() -> Header {
        Header {
            host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            host_warning: None,
        }
    }
}

/// The fields of one parsed record line, looked up by key.
pub struct Fields<'a>(Vec<(&'a str, &'a str)>);

impl<'a> Fields<'a> {
    /// Split one `{"key": value, ...}` line into raw key/value pairs.
    fn parse(line: &'a str) -> Result<Fields<'a>, String> {
        let mut rest = line
            .strip_prefix('{')
            .and_then(|l| l.strip_suffix('}'))
            .ok_or_else(|| format!("record is not one flat object: {line}"))?;
        let mut pairs = Vec::new();
        while !rest.is_empty() {
            let (key, after) = rest
                .strip_prefix('"')
                .and_then(|r| r.split_once("\": "))
                .ok_or_else(|| format!("malformed field in: {line}"))?;
            let end = match after.strip_prefix('"') {
                Some(s) => s.find('"').map(|i| i + 2),
                None => Some(after.find(", ").unwrap_or(after.len())),
            }
            .ok_or_else(|| format!("unterminated field {key:?}"))?;
            pairs.push((key, &after[..end]));
            rest = after[end..].trim_start_matches(", ");
        }
        Ok(Fields(pairs))
    }

    fn raw(&self, key: &str) -> Result<&'a str, String> {
        self.0
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("missing field {key:?}"))
    }

    /// A string field.
    pub fn str(&self, key: &str) -> Result<String, String> {
        let raw = self.raw(key)?;
        unquote(raw).ok_or_else(|| format!("field {key:?} is not a string: {raw}"))
    }

    /// An integer field.
    pub fn int<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.raw(key)?
            .parse()
            .map_err(|_| format!("field {key:?} is not an integer"))
    }

    /// A float field.
    pub fn fixed(&self, key: &str) -> Result<f64, String> {
        self.raw(key)?
            .parse()
            .map_err(|_| format!("field {key:?} is not a number"))
    }
}

fn unquote(raw: &str) -> Option<String> {
    raw.strip_prefix('"')
        .and_then(|r| r.strip_suffix('"'))
        .map(str::to_string)
}

fn render_line<R: Record>(row: &R) -> String {
    let fields: Vec<String> = row
        .fields()
        .into_iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Render a series file.
pub fn render<R: Record>(header: &Header, rows: &[R]) -> String {
    let mut out = String::from("{\n");
    if let Some(tag) = R::SCHEMA {
        let _ = writeln!(out, "  \"schema\": \"{tag}\",");
    }
    let _ = writeln!(out, "  \"host_parallelism\": {},", header.host_parallelism);
    if let Some(warning) = &header.host_warning {
        let _ = writeln!(out, "  \"host_warning\": \"{warning}\",");
    }
    out.push_str("  \"points\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(out, "    {}{comma}", render_line(row));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Parse a series file written by [`render`]; see the module docs for how
/// strict this is.
pub fn parse<R: Record>(json: &str) -> Result<(Header, Vec<R>), String> {
    let mut schema = None;
    let mut host = None;
    let mut host_warning = None;
    let mut rows = Vec::new();
    for line in json.lines().map(|l| l.trim().trim_end_matches(',')) {
        if line.starts_with('{') && line.len() > 1 {
            rows.push(R::from_fields(&Fields::parse(line)?)?);
            continue;
        }
        let Some((key, raw)) = line.split_once(": ") else {
            continue;
        };
        match key {
            "\"schema\"" => schema = unquote(raw),
            "\"host_parallelism\"" => host = raw.parse().ok(),
            "\"host_warning\"" => host_warning = unquote(raw),
            "\"points\"" => {}
            other => return Err(format!("unknown header field {other}")),
        }
    }
    if schema.as_deref() != R::SCHEMA {
        return Err(format!(
            "schema tag {schema:?} does not match the series' {:?}",
            R::SCHEMA
        ));
    }
    let header = Header {
        host_parallelism: host.ok_or("missing or malformed host_parallelism")?,
        host_warning,
    };
    if rows.is_empty() {
        return Err("no points parsed".to_string());
    }
    if render(&header, &rows) != json {
        return Err(
            "file does not re-render byte for byte (extra, reordered or \
                    reformatted fields)"
                .to_string(),
        );
    }
    Ok((header, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChaosPoint, CompiledPoint, ParallelPoint, ServePoint};

    /// Parse a file as series `R` and render it back.
    fn rerender<R: Record>(json: &str) -> Result<String, String> {
        parse::<R>(json).map(|(header, rows)| render(&header, &rows))
    }

    type Rerender = fn(&str) -> Result<String, String>;

    /// Each committed snapshot, the series it holds, and a field of that
    /// series with a plausible wrong name for it.
    const SNAPSHOTS: &[(&str, &str, Rerender, &str, &str)] = &[
        (
            "BENCH_parallel_sharded.json",
            include_str!("../../../BENCH_parallel_sharded.json"),
            rerender::<ParallelPoint>,
            "wall_ns",
            "wall_nanos",
        ),
        (
            "BENCH_compiled.json",
            include_str!("../../../BENCH_compiled.json"),
            rerender::<CompiledPoint>,
            "wall_ns",
            "ns",
        ),
        (
            "BENCH_chaos.json",
            include_str!("../../../BENCH_chaos.json"),
            rerender::<ChaosPoint>,
            "restarts",
            "boots",
        ),
        (
            "BENCH_serve.json",
            include_str!("../../../BENCH_serve.json"),
            rerender::<ServePoint>,
            "lost",
            "dropped",
        ),
    ];

    #[test]
    fn committed_snapshots_round_trip_byte_for_byte() {
        for (file, json, rerender, _, _) in SNAPSHOTS {
            assert_eq!(rerender(json).as_deref(), Ok(*json), "{file}");
        }
    }

    #[test]
    fn parser_rejects_schema_drift() {
        for (file, json, rerender, field, renamed) in SNAPSHOTS {
            let first_row = json.lines().find(|l| l.contains("{\"")).expect("a row");
            let without_field = {
                let start = first_row.find(&format!("\"{field}\": ")).expect("field");
                let len = first_row[start..].find(", ").expect("not last") + 2;
                json.replacen(&first_row[start..start + len], "", 1)
            };
            let schema_line = json.lines().find(|l| l.contains("\"schema\""));
            let wrong_schema = match schema_line {
                Some(line) => json.replace(line, "  \"schema\": \"motif-bench other-json v1\","),
                None => json.replacen(
                    "{\n",
                    "{\n  \"schema\": \"motif-bench other-json v1\",\n",
                    1,
                ),
            };
            let mut cases = vec![
                ("missing field", without_field),
                (
                    "renamed field",
                    json.replace(&format!("\"{field}\""), &format!("\"{renamed}\"")),
                ),
                ("wrong schema tag", wrong_schema),
                ("no header or points", "{}".to_string()),
            ];
            if let Some(line) = schema_line {
                cases.push(("missing schema tag", json.replace(&format!("{line}\n"), "")));
            }
            for (case, input) in cases {
                assert_ne!(&input, json, "{file}: {case} left the file unchanged");
                assert!(rerender(&input).is_err(), "{file}: accepted a {case}");
            }
        }
    }

    #[test]
    fn host_warning_round_trips() {
        let header = Header {
            host_parallelism: 1,
            host_warning: Some("recorded on a single-core host".to_string()),
        };
        let rows = vec![ParallelPoint {
            workload: "ring".to_string(),
            backend: "simulator".to_string(),
            threads: 1,
            wall_ns: 42,
            speedup: 1.0,
        }];
        let json = render(&header, &rows);
        assert_eq!(parse::<ParallelPoint>(&json), Ok((header, rows)));
    }
}
