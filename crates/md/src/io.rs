//! Trajectory I/O: the extended-XYZ format every MD visualizer reads.

use sc_cell::{AtomStore, Species};
use sc_geom::SimulationBox;
use std::io::{self, Write};

/// Default species → element-symbol mapping (Si/O for the silica system,
/// Ar for single-species runs beyond index 1).
fn symbol(species: Species, n_species: usize) -> &'static str {
    if n_species >= 2 {
        match species.index() {
            0 => "Si",
            1 => "O",
            _ => "X",
        }
    } else {
        "Ar"
    }
}

/// Writes one snapshot in extended-XYZ: atom count, a comment line carrying
/// the cubic box edge (`Lattice="L 0 0 0 L 0 0 0 L"`), then
/// `symbol x y z vx vy vz` rows in id order.
pub fn write_xyz(
    out: &mut impl Write,
    store: &AtomStore,
    bbox: &SimulationBox,
    comment: &str,
) -> io::Result<()> {
    let l = bbox.lengths();
    writeln!(out, "{}", store.len())?;
    writeln!(
        out,
        "Lattice=\"{} 0 0 0 {} 0 0 0 {}\" Properties=species:S:1:pos:R:3:vel:R:3 {comment}",
        l.x, l.y, l.z
    )?;
    let ns = store.species_masses().len();
    // Emit in id order so snapshots are comparable across runs.
    let mut order: Vec<usize> = (0..store.len()).collect();
    order.sort_by_key(|&i| store.ids()[i]);
    for i in order {
        let r = store.positions()[i];
        let v = store.velocities()[i];
        writeln!(
            out,
            "{} {:.12} {:.12} {:.12} {:.12} {:.12} {:.12}",
            symbol(store.species()[i], ns),
            r.x,
            r.y,
            r.z,
            v.x,
            v.y,
            v.z
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::build_silica_like;

    #[test]
    fn header_carries_comment_and_counts() {
        let (store, bbox) = build_silica_like(2, 7.16, [28.0855, 15.999], 0.3, 9);
        let mut buf = Vec::new();
        write_xyz(&mut buf, &store, &bbox, "test-comment").unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap().trim(), store.len().to_string());
        let header = lines.next().unwrap();
        let l = bbox.lengths();
        assert!(header.contains(&format!("Lattice=\"{} 0 0 0 {} 0 0 0 {}\"", l.x, l.y, l.z)));
        assert!(header.contains("test-comment"));
        // Every row, in id order, carries the atom's symbol, position and
        // velocity to 1e-9.
        let mut order: Vec<usize> = (0..store.len()).collect();
        order.sort_by_key(|&i| store.ids()[i]);
        let rows: Vec<&str> = lines.collect();
        assert_eq!(rows.len(), store.len());
        for (row, i) in rows.iter().zip(order) {
            let mut tok = row.split_whitespace();
            let sym = if store.species()[i].index() == 0 { "Si" } else { "O" };
            assert_eq!(tok.next(), Some(sym), "{row}");
            let vals: Vec<f64> = tok.map(|t| t.parse().unwrap()).collect();
            let (r, v) = (store.positions()[i], store.velocities()[i]);
            let want = [r.x, r.y, r.z, v.x, v.y, v.z];
            assert_eq!(vals.len(), 6, "{row}");
            assert!(vals.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9), "{row}");
        }
        // Si and O both present.
        assert!(text.lines().any(|l| l.starts_with("Si ")));
        assert!(text.lines().any(|l| l.starts_with("O ")));
    }
}
