//! Whitespace-separated edge-list reading and writing.
//!
//! Format: one edge per line, `u v` (unweighted) or `u v w` (weighted);
//! blank lines and lines starting with `#` or `%` are ignored (the comment
//! conventions of SNAP and KONECT dumps). Vertex ids are arbitrary
//! non-negative integers; the graph is sized to `max id + 1`, and ids so
//! sparse that over a million of those slots would go untouched are
//! rejected ([`GraphError::SparseIds`]) rather than allocated.

use crate::{CsrGraph, GraphBuilder, GraphError, Vertex};
use std::io::{BufRead, Write};

/// Slack of vertex ids no edge touches that [`read_edge_list`] tolerates
/// (2^20) beyond the `2·edges` ids the edges can name.
const MAX_UNUSED_IDS: usize = 1 << 20;

/// Reads an edge list from `reader`. Weightedness is inferred from the first
/// data line and must then be consistent on all lines.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<CsrGraph, GraphError> {
    let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
    let mut weights: Vec<f64> = Vec::new();
    let mut weighted: Option<bool> = None;
    let mut max_v: Vertex = 0;

    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| GraphError::Parse { line: lineno, message: e.to_string() })?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let u: Vertex = parse_field(parts.next(), lineno, "source vertex")?;
        let v: Vertex = parse_field(parts.next(), lineno, "target vertex")?;
        let w_field = parts.next();
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                message: "too many fields (expected `u v` or `u v w`)".into(),
            });
        }
        match (weighted, w_field) {
            (None, None) => weighted = Some(false),
            (None, Some(_)) => weighted = Some(true),
            (Some(false), Some(_)) | (Some(true), None) => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: "inconsistent weight columns across lines".into(),
                })
            }
            _ => {}
        }
        if let Some(ws) = w_field {
            let w: f64 = ws.parse().map_err(|_| GraphError::Parse {
                line: lineno,
                message: format!("invalid weight `{ws}`"),
            })?;
            weights.push(w);
        }
        max_v = max_v.max(u).max(v);
        edges.push((u, v));
    }

    let n = if edges.is_empty() { 0 } else { max_v as usize + 1 };
    // `edges` touch at most `2·edges` ids; refuse before any vertex-sized
    // allocation when the id space is vastly larger.
    if n > 2 * edges.len() + MAX_UNUSED_IDS {
        return Err(GraphError::SparseIds { max_id: max_v, edges: edges.len() });
    }
    let mut b = GraphBuilder::with_capacity(n, edges.len());
    if weighted == Some(true) {
        for (&(u, v), &w) in edges.iter().zip(&weights) {
            b.add_weighted_edge(u, v, w)?;
        }
    } else {
        for &(u, v) in &edges {
            b.add_edge(u, v)?;
        }
    }
    b.build()
}

fn parse_field(field: Option<&str>, line: usize, what: &str) -> Result<Vertex, GraphError> {
    let s = field.ok_or_else(|| GraphError::Parse { line, message: format!("missing {what}") })?;
    s.parse().map_err(|_| GraphError::Parse { line, message: format!("invalid {what} `{s}`") })
}

/// Writes `g` as an edge list (each undirected edge once, `u < v`).
pub fn write_edge_list<W: Write>(g: &CsrGraph, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "# mhbc edge list: n={} m={}", g.num_vertices(), g.num_edges())?;
    if g.is_weighted() {
        for (u, v, w) in g.edges() {
            writeln!(writer, "{u} {v} {w}")?;
        }
    } else {
        for (u, v, _) in g.edges() {
            writeln!(writer, "{u} {v}")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn reads_unweighted_with_comments() {
        let text = "# comment\n% other comment\n0 1\n\n1 2\n2 0\n";
        let g = read_edge_list(Cursor::new(text)).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn reads_weighted() {
        let g = read_edge_list(Cursor::new("0 1 2.5\n1 2 0.5\n")).unwrap();
        assert!(g.is_weighted());
        assert_eq!(g.edge_weight(0, 1), Some(2.5));
    }

    #[test]
    fn rejects_mixed_weight_columns() {
        let err = read_edge_list(Cursor::new("0 1\n1 2 3.0\n")).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_edge_list(Cursor::new("0 x\n")).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            read_edge_list(Cursor::new("0 1 2.0 9\n")).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            read_edge_list(Cursor::new("3\n")).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
    }

    #[test]
    fn rejects_ids_too_sparse_to_index() {
        let text = "0 1\n1 2\n2 3000000000\n3000000000 0\n";
        let err = read_edge_list(Cursor::new(text)).unwrap_err();
        assert_eq!(err, GraphError::SparseIds { max_id: 3_000_000_000, edges: 4 });
        assert!(err.to_string().contains("3000000000"), "{err}");
        // The boundary: 2·edges + 2^20 ids are still accepted.
        let max = 2 + MAX_UNUSED_IDS - 1;
        let g = read_edge_list(Cursor::new(format!("0 {max}\n"))).unwrap();
        assert_eq!(g.num_vertices(), max + 1);
        assert!(read_edge_list(Cursor::new(format!("0 {}\n", max + 1))).is_err());
    }

    #[test]
    fn roundtrip_unweighted() {
        let g = crate::generators::barbell(3, 1);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.num_vertices(), g.num_vertices());
        assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, _) in g.edges() {
            assert!(g2.has_edge(u, v));
        }
    }

    #[test]
    fn roundtrip_weighted() {
        let g = crate::CsrGraph::from_weighted_edges(3, &[(0, 1, 1.25), (1, 2, 4.0)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(Cursor::new(buf)).unwrap();
        assert_eq!(g2.edge_weight(0, 1), Some(1.25));
        assert_eq!(g2.edge_weight(1, 2), Some(4.0));
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = read_edge_list(Cursor::new("# nothing\n")).unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn self_loop_in_file_is_rejected() {
        assert!(matches!(
            read_edge_list(Cursor::new("1 1\n")).unwrap_err(),
            GraphError::SelfLoop { vertex: 1 }
        ));
    }
}
