//! Minimal CSV export/import for datasets.
//!
//! Exports render categorical levels by name; imports *infer* a schema from
//! the data ([`read_csv_infer`], the path the CLI's `--csv` flag and session
//! uploads use). Both directions speak RFC-4180 quoting: a field wrapped in
//! double quotes may contain commas and escaped (doubled) quotes, and
//! exports quote exactly the fields that need it. Embedded newlines inside
//! quoted fields remain unsupported (rejected with a clear error) — no
//! schema in this workspace produces them.

use crate::dataset::{Column, Dataset, Value};
use crate::schema::{Feature, FeatureKind, PrivilegedIf, ProtectedSpec, Schema};
use std::borrow::Cow;
use std::io::{BufRead, BufWriter, Seek, SeekFrom, Write};

/// Errors from CSV parsing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with the CSV content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Problem description.
        message: String,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "csv io error: {e}"),
            Self::Parse { line, message } => write!(f, "csv parse error at line {line}: {message}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Quotes `field` per RFC 4180 when it contains a separator or a quote
/// (doubling embedded quotes); plain fields pass through unchanged.
fn escape_field(field: &str) -> Cow<'_, str> {
    if field.contains(',') || field.contains('"') {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

/// Splits one CSV record into fields, honoring RFC-4180 quoting: a field
/// wrapped in double quotes may contain commas, and a doubled quote inside
/// a quoted field is a literal `"`. Genuinely malformed rows — an
/// unterminated quote (which includes quoted embedded newlines, since this
/// reader is line-based), a bare quote inside an unquoted field, or junk
/// after a closing quote — stay hard errors with the offending line number.
fn split_record(line: &str, line_no: usize) -> Result<Vec<String>, CsvError> {
    let err = |message: String| CsvError::Parse {
        line: line_no,
        message,
    };
    let mut fields = Vec::new();
    let mut chars = line.chars().peekable();
    loop {
        let mut field = String::new();
        if chars.peek() == Some(&'"') {
            chars.next();
            loop {
                match chars.next() {
                    Some('"') if chars.peek() == Some(&'"') => {
                        chars.next();
                        field.push('"');
                    }
                    Some('"') => break,
                    Some(c) => field.push(c),
                    None => {
                        return Err(err(
                            "unterminated quoted field (note: newlines inside quoted \
                             fields are not supported)"
                                .into(),
                        ))
                    }
                }
            }
            fields.push(field);
            match chars.next() {
                None => return Ok(fields),
                Some(',') => continue,
                Some(c) => {
                    return Err(err(format!(
                        "unexpected {c:?} after closing quote; a quoted field must be \
                         followed by a separator or the end of the record"
                    )))
                }
            }
        }
        loop {
            match chars.next() {
                Some(',') => break,
                Some('"') => {
                    return Err(err(
                        "bare '\"' inside an unquoted field; quote the whole field and \
                         double embedded quotes"
                            .into(),
                    ))
                }
                Some(c) => field.push(c),
                None => {
                    fields.push(field);
                    return Ok(fields);
                }
            }
        }
        fields.push(field);
    }
}

/// Writes the dataset as CSV: a header row of feature names plus the label
/// column, then one row per example. Fields containing separators or quotes
/// are RFC-4180-quoted, so [`read_csv_infer`] round-trips any level name
/// without newlines.
pub fn write_csv<W: Write>(data: &Dataset, writer: W) -> Result<(), CsvError> {
    let mut out = BufWriter::new(writer);
    let schema = data.schema();
    let header: Vec<Cow<'_, str>> = schema
        .features()
        .iter()
        .map(|f| escape_field(&f.name))
        .chain(std::iter::once(escape_field(&schema.label_name)))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for r in 0..data.n_rows() {
        for f in 0..data.n_features() {
            match data.value(r, f) {
                Value::Level(l) => write!(out, "{}", escape_field(schema.level_name(f, l)))?,
                Value::Number(x) => write!(out, "{x}")?,
            }
            out.write_all(b",")?;
        }
        writeln!(out, "{}", data.labels()[r])?;
    }
    out.flush()?;
    Ok(())
}

/// Who counts as privileged when importing a foreign CSV with
/// [`read_csv_infer`] (the raw-string analogue of
/// [`PrivilegedIf`]).
#[derive(Debug, Clone, PartialEq)]
pub enum InferredPrivileged {
    /// Privileged iff the (categorical) protected column equals this value,
    /// e.g. `gender=F`.
    Equals(String),
    /// Privileged iff the (numeric) protected column is `>= cutoff`,
    /// e.g. `age>=45`.
    AtLeast(f64),
}

/// Parses a `col=level` / `col>=cutoff` privileged-group rule into the
/// column name and its [`InferredPrivileged`] half. The textual spec is the
/// one both the CLI's `--protected` flag and the serving daemon's session
/// uploads speak, so it lives here next to the inferring reader it feeds.
pub fn parse_protected_spec(spec: &str) -> Result<(&str, InferredPrivileged), String> {
    if let Some((column, cutoff)) = spec.split_once(">=") {
        let cutoff: f64 = cutoff
            .parse()
            .map_err(|_| format!("invalid cutoff in protected spec `{spec}`"))?;
        return Ok((column, InferredPrivileged::AtLeast(cutoff)));
    }
    if let Some((column, level)) = spec.split_once('=') {
        if column.is_empty() || level.is_empty() {
            return Err(format!("invalid protected spec `{spec}`"));
        }
        return Ok((column, InferredPrivileged::Equals(level.to_string())));
    }
    Err(format!(
        "protected spec must be `col=level` or `col>=cutoff`, got `{spec}`"
    ))
}

/// Resolves the label and protected columns in a header, with the same
/// errors whichever ingestion path runs.
fn resolve_required_columns(
    names: &[String],
    label_column: &str,
    protected_column: &str,
) -> Result<(usize, usize), CsvError> {
    let parse_err = |message: String| CsvError::Parse { line: 1, message };
    let label_idx = names
        .iter()
        .position(|n| n == label_column)
        .ok_or_else(|| parse_err(format!("label column {label_column:?} not in header")))?;
    let protected_idx = names
        .iter()
        .position(|n| n == protected_column)
        .ok_or_else(|| {
            parse_err(format!(
                "protected column {protected_column:?} not in header"
            ))
        })?;
    if protected_idx == label_idx {
        return Err(parse_err(
            "protected column cannot be the label column".into(),
        ));
    }
    Ok((label_idx, protected_idx))
}

/// Resolves the raw privileged rule against the protected feature's inferred
/// kind, with the same errors whichever ingestion path runs.
fn resolve_privileged_rule(
    privileged: &InferredPrivileged,
    kind: &FeatureKind,
    protected_column: &str,
) -> Result<PrivilegedIf, CsvError> {
    let parse_err = |message: String| CsvError::Parse { line: 1, message };
    match (privileged, kind) {
        (InferredPrivileged::Equals(level), FeatureKind::Categorical { levels }) => levels
            .iter()
            .position(|l| l == level)
            .map(|idx| PrivilegedIf::Level(idx as u32))
            .ok_or_else(|| {
                parse_err(format!(
                    "privileged level {level:?} never occurs in column {protected_column:?}"
                ))
            }),
        (InferredPrivileged::AtLeast(cutoff), FeatureKind::Numeric) => {
            Ok(PrivilegedIf::AtLeast(*cutoff))
        }
        (InferredPrivileged::Equals(_), FeatureKind::Numeric) => Err(parse_err(format!(
            "column {protected_column:?} is numeric; use `>=cutoff` syntax"
        ))),
        (InferredPrivileged::AtLeast(_), FeatureKind::Categorical { .. }) => Err(parse_err(
            format!("column {protected_column:?} is categorical; use `=level` syntax"),
        )),
    }
}

/// Buffered reference implementation of [`read_csv_infer`]: reads every row
/// into memory before inferring. Kept (public) as the bit-identity oracle
/// the streaming path is property-tested against, and for readers that
/// cannot rewind.
pub fn read_csv_infer_buffered<R: BufRead>(
    reader: R,
    label_column: &str,
    protected_column: &str,
    privileged: &InferredPrivileged,
) -> Result<Dataset, CsvError> {
    let mut lines = reader.lines();
    let header = lines.next().ok_or(CsvError::Parse {
        line: 1,
        message: "missing header".into(),
    })??;
    let parse_err = |line: usize, message: String| CsvError::Parse { line, message };
    let names: Vec<String> = split_record(&header, 1)?;
    let n_cols = names.len();
    let (label_idx, protected_idx) =
        resolve_required_columns(&names, label_column, protected_column)?;

    // Pass 1: collect all fields (the inference needs a full column view),
    // remembering each row's source line for error reporting.
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut row_lines: Vec<usize> = Vec::new();
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<String> = split_record(&line, line_no)?;
        if fields.len() != n_cols {
            return Err(parse_err(
                line_no,
                format!("expected {n_cols} fields, found {}", fields.len()),
            ));
        }
        rows.push(fields);
        row_lines.push(line_no);
    }
    if rows.is_empty() {
        return Err(parse_err(2, "no data rows".into()));
    }

    // Pass 2: infer per-column kinds and materialize typed columns.
    let mut features: Vec<Feature> = Vec::new();
    let mut columns: Vec<Column> = Vec::new();
    // Maps CSV column index → feature index (the label column is skipped).
    let mut feature_of_col: Vec<Option<usize>> = vec![None; n_cols];
    for c in 0..n_cols {
        if c == label_idx {
            continue;
        }
        let numeric: Option<Vec<f64>> = rows
            .iter()
            .map(|r| r[c].parse::<f64>().ok().filter(|v| v.is_finite()))
            .collect();
        feature_of_col[c] = Some(features.len());
        match numeric {
            Some(values) => {
                features.push(Feature::numeric(names[c].clone()));
                columns.push(Column::Numeric(values));
            }
            None => {
                // Intern levels through a map so high-cardinality columns
                // stay O(rows), while `levels` keeps first-appearance order.
                let mut levels: Vec<String> = Vec::new();
                let mut level_of: std::collections::HashMap<&str, u32> =
                    std::collections::HashMap::new();
                let mut values: Vec<u32> = Vec::with_capacity(rows.len());
                for r in rows.iter() {
                    let idx = match level_of.get(r[c].as_str()) {
                        Some(&i) => i,
                        None => {
                            let i = levels.len() as u32;
                            levels.push(r[c].clone());
                            level_of.insert(r[c].as_str(), i);
                            i
                        }
                    };
                    values.push(idx);
                }
                features.push(Feature::categorical(names[c].clone(), levels));
                columns.push(Column::Categorical(values));
            }
        }
    }

    let mut labels: Vec<u8> = Vec::with_capacity(rows.len());
    for (i, r) in rows.iter().enumerate() {
        let y: u8 = r[label_idx]
            .parse()
            .ok()
            .filter(|&y| y <= 1)
            .ok_or_else(|| {
                parse_err(
                    row_lines[i],
                    format!("label {:?} must be 0 or 1", r[label_idx]),
                )
            })?;
        labels.push(y);
    }

    let protected_feature = feature_of_col[protected_idx].expect("not the label column");
    let privileged_rule = resolve_privileged_rule(
        privileged,
        &features[protected_feature].kind,
        protected_column,
    )?;

    Ok(Dataset::new(
        Schema::new(features, names[label_idx].clone()),
        columns,
        labels,
        ProtectedSpec {
            feature: protected_feature,
            privileged: privileged_rule,
        },
    ))
}

/// One streamed column being materialized in the second pass, its type fixed
/// by the first pass.
enum ColumnBuilder {
    Numeric(Vec<f64>),
    Categorical {
        levels: Vec<String>,
        level_of: std::collections::HashMap<String, u32>,
        values: Vec<u32>,
    },
}

/// Reads an arbitrary CSV into a [`Dataset`], inferring the schema:
///
/// * a column whose every field parses as a finite `f64` becomes numeric;
/// * every other column becomes categorical, levels in first-appearance
///   order;
/// * `label_column` (by header name) must hold `0`/`1` and becomes the
///   label;
/// * `protected_column` + `privileged` become the [`ProtectedSpec`]: an
///   [`InferredPrivileged::Equals`] rule requires a categorical column with
///   that level present, an [`InferredPrivileged::AtLeast`] rule a numeric
///   one.
///
/// Rows must all have the header's field count; blank lines are skipped.
/// RFC-4180 quoting is supported: a quoted field may contain separators,
/// and doubled quotes escape a literal quote. Malformed quoting (an
/// unterminated or misplaced quote) is rejected with the offending line
/// number rather than silently mis-aligned.
///
/// This reader **streams**: it reads the input line by line twice, and
/// holds one record at a time beyond the typed columns themselves.
///
/// 1. **Inference** — validate structure record by record (field counts,
///    quoting), keep one `numeric_ok` flag per column, count data rows.
/// 2. **Materialization** — rewind (the `Seek` bound), then fill typed
///    columns preallocated at the first pass's row count; labels are
///    validated in row order (the first pass already proved structure, so
///    the first label error is the same one the buffered path reports).
///
/// Results — datasets *and* errors, including which error wins when a file
/// has several — are bit-identical to the buffered reference path,
/// [`read_csv_infer_buffered`]; the `scale_properties` suite pins that
/// equivalence.
pub fn read_csv_infer<R: BufRead + Seek>(
    mut reader: R,
    label_column: &str,
    protected_column: &str,
    privileged: &InferredPrivileged,
) -> Result<Dataset, CsvError> {
    let parse_err = |line: usize, message: String| CsvError::Parse { line, message };
    let mut lines = (&mut reader).lines();
    let header = lines.next().ok_or(CsvError::Parse {
        line: 1,
        message: "missing header".into(),
    })??;
    let names: Vec<String> = split_record(&header, 1)?;
    let n_cols = names.len();
    let (label_idx, protected_idx) =
        resolve_required_columns(&names, label_column, protected_column)?;

    // Pass 1: structure validation + per-column numeric inference + count.
    let mut numeric_ok = vec![true; n_cols];
    let mut n_rows = 0usize;
    for (idx, line) in lines.enumerate() {
        let line_no = idx + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<String> = split_record(&line, line_no)?;
        if fields.len() != n_cols {
            return Err(parse_err(
                line_no,
                format!("expected {n_cols} fields, found {}", fields.len()),
            ));
        }
        for (c, field) in fields.iter().enumerate() {
            if c != label_idx && numeric_ok[c] && !field.parse::<f64>().is_ok_and(|v| v.is_finite())
            {
                numeric_ok[c] = false;
            }
        }
        n_rows += 1;
    }
    if n_rows == 0 {
        return Err(parse_err(2, "no data rows".into()));
    }

    // Pass 2: rewind and materialize into preallocated typed columns.
    reader.seek(SeekFrom::Start(0))?;
    let mut feature_of_col: Vec<Option<usize>> = vec![None; n_cols];
    let mut builders: Vec<ColumnBuilder> = Vec::with_capacity(n_cols - 1);
    for c in 0..n_cols {
        if c == label_idx {
            continue;
        }
        feature_of_col[c] = Some(builders.len());
        builders.push(if numeric_ok[c] {
            ColumnBuilder::Numeric(Vec::with_capacity(n_rows))
        } else {
            ColumnBuilder::Categorical {
                levels: Vec::new(),
                level_of: std::collections::HashMap::new(),
                values: Vec::with_capacity(n_rows),
            }
        });
    }
    let mut labels: Vec<u8> = Vec::with_capacity(n_rows);
    // The header's structure was proven in pass 1.
    for (idx, line) in reader.lines().skip(1).enumerate() {
        let line_no = idx + 2;
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields: Vec<String> = split_record(&line, line_no)?;
        for (c, field) in fields.iter().enumerate() {
            let Some(f) = feature_of_col[c] else {
                continue;
            };
            match &mut builders[f] {
                ColumnBuilder::Numeric(values) => {
                    // Pass 1 proved every field in this column numeric.
                    let v = field.parse::<f64>().map_err(|_| {
                        parse_err(line_no, format!("field {field:?} stopped parsing as f64"))
                    })?;
                    values.push(v);
                }
                ColumnBuilder::Categorical {
                    levels,
                    level_of,
                    values,
                } => {
                    let idx = match level_of.get(field.as_str()) {
                        Some(&i) => i,
                        None => {
                            let i = levels.len() as u32;
                            levels.push(field.clone());
                            level_of.insert(field.clone(), i);
                            i
                        }
                    };
                    values.push(idx);
                }
            }
        }
        let y: u8 = fields[label_idx]
            .parse()
            .ok()
            .filter(|&y| y <= 1)
            .ok_or_else(|| {
                parse_err(
                    line_no,
                    format!("label {:?} must be 0 or 1", fields[label_idx]),
                )
            })?;
        labels.push(y);
    }

    let mut features: Vec<Feature> = Vec::with_capacity(builders.len());
    let mut columns: Vec<Column> = Vec::with_capacity(builders.len());
    for (c, name) in names.iter().enumerate() {
        let Some(f) = feature_of_col[c] else {
            continue;
        };
        match std::mem::replace(&mut builders[f], ColumnBuilder::Numeric(Vec::new())) {
            ColumnBuilder::Numeric(values) => {
                features.push(Feature::numeric(name.clone()));
                columns.push(Column::Numeric(values));
            }
            ColumnBuilder::Categorical { levels, values, .. } => {
                features.push(Feature::categorical(name.clone(), levels));
                columns.push(Column::Categorical(values));
            }
        }
    }

    let protected_feature = feature_of_col[protected_idx].expect("not the label column");
    let privileged_rule = resolve_privileged_rule(
        privileged,
        &features[protected_feature].kind,
        protected_column,
    )?;

    Ok(Dataset::new(
        Schema::new(features, names[label_idx].clone()),
        columns,
        labels,
        ProtectedSpec {
            feature: protected_feature,
            privileged: privileged_rule,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::german;
    use std::io::{BufReader, Cursor};

    /// Asserts that `read` (an export of `original` re-imported with
    /// inference) kept every cell, label and privileged flag: the inferred
    /// schema may order levels differently, so rows compare as rendered.
    fn assert_same_rows(original: &Dataset, read: &Dataset) {
        assert_eq!(read.n_rows(), original.n_rows());
        assert_eq!(read.labels(), original.labels());
        assert_eq!(read.privileged_mask(), original.privileged_mask());
        for r in 0..original.n_rows() {
            assert_eq!(original.describe_row(r), read.describe_row(r));
        }
    }

    /// The German generator's protected group, as an inference rule.
    const GERMAN_AGE: InferredPrivileged = InferredPrivileged::AtLeast(45.0);

    #[test]
    fn round_trips_german() {
        let d = german(50, 1);
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let back = read_csv_infer(Cursor::new(&buf), "good_credit", "age", &GERMAN_AGE).unwrap();
        assert_same_rows(&d, &back);
    }

    #[test]
    fn header_has_label_column() {
        let d = german(2, 1);
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let header = text.lines().next().unwrap();
        assert!(header.ends_with(",good_credit"), "{header}");
        assert_eq!(text.lines().count(), 3);
    }

    const FOREIGN: &str = "\
age,gender,income,approved
25,F,31000,0
52,M,54000,1
33,M,47000,1
61,F,29000,0
";

    #[test]
    fn infer_detects_kinds_and_protected_level() {
        let d = read_csv_infer(
            Cursor::new(FOREIGN.as_bytes()),
            "approved",
            "gender",
            &InferredPrivileged::Equals("M".into()),
        )
        .unwrap();
        assert_eq!(d.n_rows(), 4);
        assert_eq!(d.n_features(), 3);
        assert_eq!(d.schema().label_name, "approved");
        assert!(matches!(d.schema().feature(0).kind, FeatureKind::Numeric));
        assert!(matches!(
            d.schema().feature(1).kind,
            FeatureKind::Categorical { .. }
        ));
        assert_eq!(d.labels(), &[0, 1, 1, 0]);
        // F appears first, M second → privileged level index 1.
        assert_eq!(d.privileged_mask(), vec![false, true, true, false]);
    }

    #[test]
    fn infer_supports_numeric_threshold_rule() {
        let d = read_csv_infer(
            Cursor::new(FOREIGN.as_bytes()),
            "approved",
            "age",
            &InferredPrivileged::AtLeast(45.0),
        )
        .unwrap();
        assert_eq!(d.privileged_mask(), vec![false, true, false, true]);
    }

    #[test]
    fn infer_round_trips_generated_exports() {
        // A german export re-imported with inference must keep every cell
        // (schemas differ in level order but values must agree).
        let original = german(40, 9);
        let mut buf = Vec::new();
        write_csv(&original, &mut buf).unwrap();
        let inferred =
            read_csv_infer(Cursor::new(&buf), "good_credit", "age", &GERMAN_AGE).unwrap();
        assert_same_rows(&original, &inferred);
    }

    /// Every read buffer size — down to one byte, so buffer boundaries land
    /// inside quoted fields, multi-byte characters, and `\r\n` pairs — must
    /// yield exactly what the buffered reference yields.
    #[test]
    fn streaming_matches_buffered_at_every_tiny_chunk_size() {
        let csv = "name,née,approved\r\n\
                   \"Smith, John\",café,1\r\n\
                   \n\
                   \"He said \"\"hí\"\"\",naïve,0\n\
                   plain,über,1";
        let rule = InferredPrivileged::Equals("café".into());
        let buffered =
            read_csv_infer_buffered(Cursor::new(csv.as_bytes()), "approved", "née", &rule).unwrap();
        for chunk in 1..40 {
            let reader = BufReader::with_capacity(chunk, Cursor::new(csv.as_bytes()));
            let streamed = read_csv_infer(reader, "approved", "née", &rule).unwrap();
            assert_eq!(streamed, buffered, "chunk={chunk}");
        }
    }

    /// Errors must also match the buffered path — same variant, same line —
    /// at buffer sizes that split the offending record.
    #[test]
    fn streaming_reports_buffered_errors_at_tiny_chunks() {
        let cases: &[&str] = &[
            "a,y\n1,0\nonly_one_field\n", // field-count error, line 3
            "a,y\n\"unterminated,0\n",    // quoting error, line 2
            "a,y\n1,7\n",                 // label error, line 2
            "a,y\n",                      // no data rows
        ];
        for csv in cases {
            let want = format!(
                "{:?}",
                read_csv_infer_buffered(
                    Cursor::new(csv.as_bytes()),
                    "y",
                    "a",
                    &InferredPrivileged::AtLeast(0.0),
                )
                .unwrap_err()
            );
            for chunk in 1..40 {
                let reader = BufReader::with_capacity(chunk, Cursor::new(csv.as_bytes()));
                let got = format!(
                    "{:?}",
                    read_csv_infer(reader, "y", "a", &InferredPrivileged::AtLeast(0.0))
                        .unwrap_err()
                );
                assert_eq!(got, want, "csv={csv:?} chunk={chunk}");
            }
        }
    }

    #[test]
    fn infer_rejects_bad_inputs() {
        let kind = |r: Result<Dataset, CsvError>| match r.unwrap_err() {
            CsvError::Parse { message, .. } => message,
            other => panic!("unexpected {other:?}"),
        };
        // Unknown label column.
        let msg = kind(read_csv_infer(
            Cursor::new(FOREIGN.as_bytes()),
            "nope",
            "gender",
            &InferredPrivileged::Equals("M".into()),
        ));
        assert!(msg.contains("label column"), "{msg}");
        // Mismatched rule kind.
        let msg = kind(read_csv_infer(
            Cursor::new(FOREIGN.as_bytes()),
            "approved",
            "age",
            &InferredPrivileged::Equals("45".into()),
        ));
        assert!(msg.contains("numeric"), "{msg}");
        // Non-binary label.
        let msg = kind(read_csv_infer(
            Cursor::new(b"a,y\n1,2\n" as &[u8]),
            "y",
            "a",
            &InferredPrivileged::AtLeast(0.0),
        ));
        assert!(msg.contains("must be 0 or 1"), "{msg}");
        // Empty file.
        let msg = kind(read_csv_infer(
            Cursor::new(b"a,y\n" as &[u8]),
            "y",
            "a",
            &InferredPrivileged::AtLeast(0.0),
        ));
        assert!(msg.contains("no data rows"), "{msg}");
        // Malformed quoting is a hard error, not a silent mis-split.
        let msg = kind(read_csv_infer(
            Cursor::new(b"name,y\n\"Smith, John,1\n" as &[u8]),
            "y",
            "name",
            &InferredPrivileged::Equals("Smith, John".into()),
        ));
        assert!(msg.contains("unterminated"), "{msg}");
        let msg = kind(read_csv_infer(
            Cursor::new(b"name,y\nSm\"ith,1\n" as &[u8]),
            "y",
            "name",
            &InferredPrivileged::Equals("x".into()),
        ));
        assert!(msg.contains("unquoted field"), "{msg}");
        let msg = kind(read_csv_infer(
            Cursor::new(b"name,y\n\"Smith\"x,1\n" as &[u8]),
            "y",
            "name",
            &InferredPrivileged::Equals("x".into()),
        ));
        assert!(msg.contains("after closing quote"), "{msg}");
    }

    #[test]
    fn quoted_separators_and_doubled_quotes_parse() {
        let text = "name,y\n\"Smith, John\",1\n\"says \"\"hi\"\"\",0\nplain,1\n";
        let d = read_csv_infer(
            Cursor::new(text.as_bytes()),
            "y",
            "name",
            &InferredPrivileged::Equals("Smith, John".into()),
        )
        .unwrap();
        assert_eq!(d.n_rows(), 3);
        assert_eq!(d.labels(), &[1, 0, 1]);
        match d.schema().feature(0).kind {
            FeatureKind::Categorical { ref levels } => {
                assert_eq!(levels, &["Smith, John", "says \"hi\"", "plain"]);
            }
            _ => panic!("name must infer as categorical"),
        }
        assert_eq!(d.privileged_mask(), vec![true, false, false]);
    }

    #[test]
    fn quoting_round_trips_through_export_and_both_importers() {
        // Level names exercising every quoting rule: separators, embedded
        // quotes, and a plain level that must stay unquoted.
        let schema = Schema::new(
            vec![
                Feature::categorical("employer, name", ["Acme, Inc.", "\"Quoted\" LLC", "plain"]),
                Feature::numeric("age"),
            ],
            "approved",
        );
        let original = Dataset::new(
            schema,
            vec![
                Column::Categorical(vec![0, 1, 2, 0]),
                Column::Numeric(vec![30.0, 45.0, 52.0, 61.0]),
            ],
            vec![1, 0, 1, 0],
            ProtectedSpec {
                feature: 1,
                privileged: PrivilegedIf::AtLeast(45.0),
            },
        );
        let mut buf = Vec::new();
        write_csv(&original, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains("\"Acme, Inc.\""), "{text}");
        assert!(text.contains("\"\"\"Quoted\"\" LLC\""), "{text}");
        // The streaming and the buffered importer recover every cell.
        let rule = InferredPrivileged::AtLeast(45.0);
        let streamed = read_csv_infer(Cursor::new(&buf), "approved", "age", &rule).unwrap();
        assert_same_rows(&original, &streamed);
        let buffered =
            read_csv_infer_buffered(Cursor::new(&buf), "approved", "age", &rule).unwrap();
        assert_same_rows(&original, &buffered);
    }

    #[test]
    fn skips_blank_lines() {
        let d = german(3, 2);
        let mut buf = Vec::new();
        write_csv(&d, &mut buf).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push('\n');
        let back = read_csv_infer(
            Cursor::new(text.as_bytes()),
            "good_credit",
            "age",
            &GERMAN_AGE,
        )
        .unwrap();
        assert_same_rows(&d, &back);
    }
}
