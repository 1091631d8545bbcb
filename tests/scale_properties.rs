//! Scale property tier: the SQF-scale streaming CSV reader must be
//! provably invisible in results.
//!
//! `read_csv_infer` streams line by line with a rewind; random CSVs (quoted
//! separators, doubled quotes, multi-byte UTF-8, blank lines, `\r\n`,
//! missing trailing newline) read through buffers down to one byte must
//! produce bit-identical datasets *and* errors to the buffered reference
//! path.

use gopher_data::csv::{read_csv_infer, read_csv_infer_buffered, CsvError, InferredPrivileged};
use gopher_data::Dataset;
use proptest::prelude::*;
use std::io::{BufReader, Cursor};

/// Cell palettes. The "category" palette is deliberately hostile: embedded
/// separators, doubled quotes, multi-byte UTF-8 (so buffer boundaries can
/// split a character), empty fields.
const NUM_CELLS: &[&str] = &["1", "2.5", "-3", "1e3", "0.125", "NaN", "x", "7"];
const CAT_CELLS: &[&str] = &[
    "plain",
    "with,comma",
    "with\"quote",
    "café ü漢",
    "",
    "naïve",
    "a\"\"b",
    "two words",
];
/// Mostly valid labels; "2" exercises the error path (both readers must
/// report the same line).
const LABEL_CELLS: &[&str] = &["0", "1", "1", "0", "2"];

/// RFC-4180 escape, mirroring the exporter's rule: quote iff the field
/// contains a separator or a quote, doubling embedded quotes.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Builds a CSV from palette picks: columns `num,grp,y`, optional blank
/// lines, `\n` or `\r\n`, optional trailing newline.
fn build_csv(cells: &[usize], crlf: bool, trailing_newline: bool, blank_every: usize) -> String {
    let eol = if crlf { "\r\n" } else { "\n" };
    let mut out = String::from("num,grp,y");
    out.push_str(eol);
    for (row, pick) in cells.chunks_exact(3).enumerate() {
        if blank_every > 0 && row > 0 && row % blank_every == 0 {
            out.push_str(eol);
        }
        let num = NUM_CELLS[pick[0] % NUM_CELLS.len()];
        let grp = CAT_CELLS[pick[1] % CAT_CELLS.len()];
        let y = LABEL_CELLS[pick[2] % LABEL_CELLS.len()];
        out.push_str(&format!("{},{},{}{}", escape(num), escape(grp), y, eol));
    }
    if !trailing_newline {
        // Drop the final terminator so the last record exercises the
        // unterminated-line path (where `\r` must NOT be stripped).
        out.truncate(out.len() - eol.len());
    }
    out
}

/// Renders a result so `Err` cases compare too (same variant, line, text).
fn render(result: Result<Dataset, CsvError>) -> String {
    match result {
        Ok(d) => format!("{d:?}"),
        Err(e) => format!("err: {e:?}"),
    }
}

proptest! {
    /// Streaming through a read buffer of any size — boundaries forced
    /// inside quoted fields, multi-byte characters, and `\r\n` pairs — is
    /// bit-identical to the buffered reference, datasets and errors alike.
    #[test]
    fn streaming_csv_is_bit_identical_to_buffered(
        cells in proptest::collection::vec(0usize..8, 3..54),
        chunk in 1usize..40,
        crlf in 0u64..2,
        trailing in 0u64..2,
        blank_every in 0usize..4,
    ) {
        let cells = &cells[..cells.len() - cells.len() % 3];
        let csv = build_csv(cells, crlf == 1, trailing == 1, blank_every);
        let rule = InferredPrivileged::Equals("plain".into());
        let buffered = render(read_csv_infer_buffered(
            Cursor::new(csv.as_bytes()), "y", "grp", &rule,
        ));
        let streamed = render(read_csv_infer(
            BufReader::with_capacity(chunk, Cursor::new(csv.as_bytes())), "y", "grp", &rule,
        ));
        // (On mismatch the rendered strings carry the full dataset/error, so
        // the failing case is reconstructible from the assertion output.)
        prop_assert_eq!(streamed, buffered);
    }
}
