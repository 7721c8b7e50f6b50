//! Plain-text temporal edge-list I/O.
//!
//! Format: one event per line, `u v [time]`, whitespace separated; lines
//! starting with `#` or `%` are comments. When the time column is absent,
//! line order is the timestamp — this accepts the common SNAP/KONECT edge
//! list exports, so real traces can be dropped in for the synthetic
//! emulators without code changes.
//!
//! Node ids in a file are labels, not indexes: a trace may number its
//! nodes sparsely (`7`, `4000000000`). The reader compacts them,
//! order-preservingly, to the dense ids `0..n` the graph layer indexes by,
//! and hands back each dense id's original label so callers can report
//! results in the file's own terms.

use cp_graph::{NodeId, TemporalGraph, TimedEdge};
use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

/// Errors from temporal edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and content.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The offending line content.
        content: String,
    },
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, content } => {
                write!(f, "malformed edge list at line {line}: {content:?}")
            }
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Parses a temporal edge list from a reader.
///
/// Node ids are compacted: the sorted distinct labels of the file become
/// the dense ids `0..n`, each label mapped to its rank, so the universe
/// holds exactly the nodes that occur. Returns the stream over dense ids
/// and `labels`, where `labels[i]` is the file's id for dense node `i`. A
/// file whose ids are already `0..n`, each used, parses to those same ids.
pub fn read_temporal<R: BufRead>(reader: R) -> Result<(TemporalGraph, Vec<u32>), IoError> {
    let mut events = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse_err = || IoError::Parse {
            line: idx + 1,
            content: trimmed.to_string(),
        };
        let u: u32 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(parse_err)?;
        let v: u32 = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(parse_err)?;
        let time: u64 = match it.next() {
            Some(s) => s.parse().map_err(|_| parse_err())?,
            None => events.len() as u64,
        };
        events.push(TimedEdge {
            u: NodeId(u),
            v: NodeId(v),
            time,
        });
    }
    let mut labels: Vec<u32> = events.iter().flat_map(|e| [e.u.0, e.v.0]).collect();
    labels.sort_unstable();
    labels.dedup();
    let rank = |label: NodeId| {
        NodeId::new(
            labels
                .binary_search(&label.0)
                .expect("every endpoint is labelled"),
        )
    };
    for e in &mut events {
        e.u = rank(e.u);
        e.v = rank(e.v);
    }
    Ok((TemporalGraph::new(labels.len(), events), labels))
}

/// Reads a temporal edge list from a file path; see [`read_temporal`].
pub fn read_temporal_file(path: impl AsRef<Path>) -> Result<(TemporalGraph, Vec<u32>), IoError> {
    let file = std::fs::File::open(path)?;
    read_temporal(std::io::BufReader::new(file))
}

/// Writes a temporal edge list (`u v time` per line) to a writer.
pub fn write_temporal<W: Write>(graph: &TemporalGraph, writer: W) -> std::io::Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(out, "# temporal edge list: u v time")?;
    for e in graph.events() {
        writeln!(out, "{} {} {}", e.u, e.v, e.time)?;
    }
    out.flush()
}

/// Writes a temporal edge list to a file path.
pub fn write_temporal_file(graph: &TemporalGraph, path: impl AsRef<Path>) -> std::io::Result<()> {
    write_temporal(graph, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let t = TemporalGraph::from_sequence(
            4,
            vec![
                (NodeId(0), NodeId(1)),
                (NodeId(2), NodeId(3)),
                (NodeId(1), NodeId(2)),
            ],
        );
        let mut buf = Vec::new();
        write_temporal(&t, &mut buf).unwrap();
        let (back, labels) = read_temporal(buf.as_slice()).unwrap();
        assert_eq!(back.events(), t.events());
        assert_eq!(back.num_nodes(), 4);
        assert_eq!(labels, vec![0, 1, 2, 3], "dense ids are their own labels");
    }

    #[test]
    fn sparse_ids_are_compacted_in_order() {
        let (t, labels) = read_temporal(
            "4000000000 7
"
            .as_bytes(),
        )
        .unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(labels, vec![7, 4_000_000_000]);
        // Order-preserving: the larger label gets the larger dense id.
        assert_eq!((t.events()[0].u, t.events()[0].v), (NodeId(1), NodeId(0)));
        let (g1, _) = t.snapshot_pair(1.0, 1.0);
        assert_eq!(g1.num_nodes(), 2);
        assert_eq!(g1.num_edges(), 1);
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let text = "# header\n\n% konect style\n0 1\n1 2 5\n";
        let (t, _) = read_temporal(text.as_bytes()).unwrap();
        assert_eq!(t.num_events(), 2);
        // First line had implicit time 0, second explicit time 5.
        assert_eq!(t.events()[0].time, 0);
        assert_eq!(t.events()[1].time, 5);
    }

    #[test]
    fn malformed_line_reports_position() {
        let text = "0 1\nnot an edge\n";
        match read_temporal(text.as_bytes()) {
            Err(IoError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_is_malformed() {
        // A file cut off mid-record: the final line lost its second
        // endpoint. This must surface as a positioned parse error, not a
        // panic or a silently shorter stream.
        let text = "0 1 0\n1 2 1\n2";
        match read_temporal(text.as_bytes()) {
            Err(IoError::Parse { line, content }) => {
                assert_eq!(line, 3);
                assert_eq!(content, "2");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_time_column_is_rejected() {
        let text = "0 1 soon\n";
        match read_temporal(text.as_bytes()) {
            Err(IoError::Parse { line, content }) => {
                assert_eq!(line, 1);
                assert_eq!(content, "0 1 soon");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn read_failure_mid_stream_propagates_io_error() {
        /// Serves a prefix of the data, then fails — a file truncated at
        /// the storage layer rather than the record layer.
        struct TruncatedReader {
            data: &'static [u8],
            pos: usize,
        }
        impl std::io::Read for TruncatedReader {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "storage truncated",
                    ));
                }
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let reader = std::io::BufReader::new(TruncatedReader {
            data: b"0 1 0\n1 2 1\n",
            pos: 0,
        });
        match read_temporal(reader) {
            Err(IoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("cp_gen_io_test_definitely_missing.txt");
        match read_temporal_file(&path) {
            Err(IoError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
            other => panic!("expected io error, got {other:?}"),
        }
    }

    #[test]
    fn empty_input() {
        let (t, labels) = read_temporal("".as_bytes()).unwrap();
        assert_eq!(t.num_nodes(), 0);
        assert_eq!(t.num_events(), 0);
        assert!(labels.is_empty());
    }

    #[test]
    fn file_roundtrip() {
        // Node 1 is isolated, so it drops out of the universe; the labels
        // map the compacted ids back to the written ones.
        let t = TemporalGraph::from_sequence(3, vec![(NodeId(0), NodeId(2))]);
        let dir = std::env::temp_dir().join("cp_gen_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.txt");
        write_temporal_file(&t, &path).unwrap();
        let (back, labels) = read_temporal_file(&path).unwrap();
        assert_eq!(back.num_nodes(), 2);
        let relabelled: Vec<TimedEdge> = back
            .events()
            .iter()
            .map(|e| TimedEdge {
                u: NodeId(labels[e.u.index()]),
                v: NodeId(labels[e.v.index()]),
                time: e.time,
            })
            .collect();
        assert_eq!(relabelled, t.events());
        std::fs::remove_file(path).ok();
    }
}
