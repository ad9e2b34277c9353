//! EXPERIMENTS.md, checked: every model and count number its sections
//! E1–E7 and E9 quote is recomputed here from the library, rendered as the
//! markdown row or quoted phrase the document prints, and looked up in the
//! document verbatim. The document is the fixture: a changed model constant
//! or an edited digit fails the section's test, which prints the rendered
//! line it could not find. A number that no longer reproduces is fixed in
//! EXPERIMENTS.md, never here.
//!
//! `cargo test --test experiments -- --nocapture` prints every table;
//! `cargo test --test experiments e7 -- --nocapture` prints one section's.

use shift_collapse_md::geom::IVec3;
use shift_collapse_md::md::engine::{
    visit_pairs, visit_triplets, ChainSweep, LinkRows, PeriodicSource,
};
use shift_collapse_md::md::{random_gas, Dedup, Method, PatternPlan};
use shift_collapse_md::netmodel::{MachineProfile, MdCostModel, SilicaWorkload};
use shift_collapse_md::pattern::{
    eighth_shell, full_shell, generate_fs, generate_fs_reach, half_shell, import_volume_cubic,
    neighbor_rank_offsets, oc_shift, r_collapse, reach_theory, shift_collapse,
    shift_collapse_reach, theory, Pattern,
};
use shift_collapse_md::prelude::{AtomStore, CellLattice, SimulationBox};

const EXPERIMENTS: &str = include_str!("../EXPERIMENTS.md");

/// Prints a section's rendered lines, then fails, naming the section, with
/// every line EXPERIMENTS.md does not contain verbatim.
fn check(section: &str, lines: &[String]) {
    println!("{section}");
    for line in lines {
        println!("{line}");
    }
    println!();
    let missing: Vec<&str> =
        lines.iter().map(String::as_str).filter(|l| !EXPERIMENTS.contains(l)).collect();
    assert!(
        missing.is_empty(),
        "{section}: EXPERIMENTS.md does not contain these rendered lines (fix the document):\n{}",
        missing.join("\n")
    );
}

/// One markdown table row from its cells.
macro_rules! row {
    ($($cell:expr),+ $(,)?) => {
        format!("| {} |", [$($cell.to_string()),+].join(" | "))
    };
}

/// A formatted number with the integer part of ten thousand and up grouped
/// by spaces, as the document prints it: `19683` → `19 683`.
fn grouped(number: impl ToString) -> String {
    let s = number.to_string();
    let (int, frac) = s.split_at(s.find('.').unwrap_or(s.len()));
    if int.len() < 5 {
        return s;
    }
    let mut out = String::new();
    for (i, c) in int.chars().enumerate() {
        if i > 0 && (int.len() - i) % 3 == 0 {
            out.push(' ');
        }
        out.push(c);
    }
    out + frac
}

// ---------------------------------------------------------------------------
// E7 — §4 theory tables
// ---------------------------------------------------------------------------

#[test]
fn e7_theory_tables() {
    let orders = 2..=5usize;
    // Constructed patterns equal the closed forms (n = 5 builds 531 441
    // paths; sc-core's own suite constructs it).
    for n in 2..=4 {
        let (fs, sc) = (generate_fs(n), shift_collapse(n));
        assert_eq!(fs.len() as u64, theory::fs_path_count(n), "E7: built |Ψ_FS({n})| ≠ Eq. 25");
        assert_eq!(sc.len() as u64, theory::sc_path_count(n), "E7: built |Ψ_SC({n})| ≠ Eq. 29");
        let s = sc.self_reflective_count() as u64;
        assert_eq!(s, theory::self_reflective_count(n), "E7: built s({n}) ≠ Eq. 27");
    }
    let counts =
        |f: fn(usize) -> u64| orders.clone().map(|n| grouped(f(n))).collect::<Vec<_>>().join(", ");
    let mut lines = vec![
        row!(
            "`\\|Ψ_FS(n)\\|` = 27^{n−1} (Eq. 25)",
            counts(theory::fs_path_count),
            "identical, constructed = closed form",
            "exact"
        ),
        format!("corrected exponent `⌊(n−1)/2⌋`: {}", counts(theory::self_reflective_count)),
        format!("{} = (27^{{n−1}}+s)/2", counts(theory::sc_path_count)),
        format!(
            "{:.3} (n = 3) → {:.3} (n = 5)",
            theory::fs_over_sc_ratio(3),
            theory::fs_over_sc_ratio(5)
        ),
        row!("n", "`\\|Ψ_FS\\|`", "self-reflective", "`\\|Ψ_SC\\|`", "FS/SC"),
    ];
    for n in orders.clone() {
        lines.push(row!(
            n,
            grouped(theory::fs_path_count(n)),
            grouped(theory::self_reflective_count(n)),
            grouped(theory::sc_path_count(n)),
            format!("{:.3}", theory::fs_over_sc_ratio(n))
        ));
    }

    // §4.3: the classical pair methods, and ES ≡ SC(2) path by path.
    let (es, sc2) = (eighth_shell().canonicalized(), shift_collapse(2).canonicalized());
    assert_eq!(es, sc2, "E7: ES ≠ SC(2) path by path");
    lines.push(row!("method", "`\\|Ψ\\|`", "footprint", "imports, l = 1"));
    for (name, pattern) in [
        ("FS", full_shell()),
        ("HS", half_shell()),
        ("ES", eighth_shell()),
        ("SC(2)", shift_collapse(2)),
    ] {
        lines.push(row!(
            name,
            pattern.len(),
            pattern.footprint(),
            import_volume_cubic(1, &pattern)
        ));
    }

    // Eq. 33: SC import volume, built = closed form; FS and midpoint beside.
    lines.push(row!("n", "l", "SC (built)", "SC (Eq. 33)", "FS (built)", "midpoint"));
    for n in 2..=4usize {
        let (sc, fs) = (shift_collapse(n), generate_fs(n));
        for l in 1..=4u32 {
            lines.push(row!(
                n,
                l,
                import_volume_cubic(l, &sc),
                theory::sc_import_volume(l.into(), n),
                import_volume_cubic(l, &fs),
                theory::midpoint_import_volume(l.into(), n)
            ));
        }
    }

    // Ablation: what each SC subroutine contributes at n = 3, l = 2.
    let fs = generate_fs(3);
    let (oc, rc, sc) = (oc_shift(&fs), r_collapse(&fs), shift_collapse(3));
    lines.push(row!("pattern", "`\\|Ψ\\|`", "footprint", "imports, l = 2"));
    for (name, pattern) in
        [("FS", &fs), ("OC-SHIFT only", &oc), ("R-COLLAPSE only", &rc), ("SC (both)", &sc)]
    {
        lines.push(row!(name, pattern.len(), pattern.footprint(), import_volume_cubic(2, pattern)));
    }
    lines.push(format!(
        "OC-SHIFT alone keeps {} paths but cuts the l = 2 import from {} to {} cells",
        oc.len(),
        import_volume_cubic(2, &fs),
        import_volume_cubic(2, &oc)
    ));
    lines.push(format!(
        "R-COLLAPSE alone cuts the paths to {} but still imports {} cells",
        rc.len(),
        import_volume_cubic(2, &rc)
    ));
    check("E7", &lines);
}

// ---------------------------------------------------------------------------
// E1 — Fig. 7: triplets in the force set vs domain size
// ---------------------------------------------------------------------------

/// Fig. 7's workload: a uniform random gas at a fixed average density of
/// ⟨ρ_cell⟩ = 2 atoms per cell on `l³` cells of unit edge (the cut-off).
fn fixed_density_gas(l: usize, seed: u64) -> (AtomStore, SimulationBox) {
    random_gas(2 * l * l * l, l as f64, seed)
}

#[test]
fn e1_triplet_counts() {
    // FS with only the self-reflective guards keeps its raw force set
    // (reflective duplicates retained); SC's is duplicate-free.
    let fs_plan = PatternPlan::new(&generate_fs(3), Dedup::Collapsed);
    let sc_plan = PatternPlan::new(&shift_collapse(3), Dedup::Collapsed);
    // Silica's own triplet cells hold fewer atoms than the test gas's 2.
    let w = SilicaWorkload::silica();
    let mut lines = vec![
        format!("ρ·r_cut3³ ≈ {:.2}", w.density * w.rcut3.powi(3)),
        row!("cells", "atoms", "FS triplets", "SC triplets", "FS/SC"),
    ];
    let mut ratios = vec![];
    for l in [4usize, 5, 6, 8, 10, 12] {
        // Three configurations per size (the paper averages 10 000 steps).
        let samples = 100..103u64;
        let (mut fs, mut sc, mut atoms) = (0, 0, 0);
        for seed in samples.clone() {
            let (store, bbox) = fixed_density_gas(l, seed);
            let mut lat = CellLattice::new(bbox, 1.0);
            lat.rebuild(&store);
            fs += visit_triplets(&lat, &store, &fs_plan, 1.0, |_, _, _, _, _| {}).accepted;
            sc += visit_triplets(&lat, &store, &sc_plan, 1.0, |_, _, _, _, _| {}).accepted;
            atoms = store.len();
        }
        let k = samples.count() as f64;
        let (fs, sc) = (fs as f64 / k, sc as f64 / k);
        ratios.push(fs / sc);
        lines.push(row!(
            grouped(l * l * l),
            grouped(atoms),
            grouped(format!("{fs:.0}")),
            grouped(format!("{sc:.0}")),
            format!("{:.3}", fs / sc)
        ));
    }
    let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
    let (lo, hi) = ratios.iter().fold((f64::MAX, f64::MIN), |(a, b), &r| (a.min(r), b.max(r)));
    lines.push(row!(
        "FS/SC force-set triplet ratio",
        "≈ 2.13, flat in domain size",
        format!("**{mean:.2}**, flat in domain size ({lo:.3}–{hi:.3})")
    ));
    lines.push(row!(
        "theory",
        "—",
        format!(
            "{}/{} = {:.2} path-count ratio",
            theory::fs_path_count(3),
            theory::sc_path_count(3),
            theory::fs_over_sc_ratio(3)
        )
    ));

    // Across tuple orders on one 6³ domain.
    let (store, bbox) = fixed_density_gas(6, 100);
    let mut lat = CellLattice::new(bbox, 1.0);
    lat.rebuild(&store);
    let src = PeriodicSource::new(&lat, &store);
    let accepted = |pattern: &Pattern| {
        let plan = PatternPlan::new(pattern, Dedup::Collapsed);
        if pattern.n() == 2 {
            return visit_pairs(&lat, &store, &plan, 1.0, |_, _, _, _| {}).accepted;
        }
        let mut rows = LinkRows::default();
        let mut sweep = ChainSweep::new(&src, &plan, 1.0, &mut rows);
        lat.cells().map(|q| sweep.visit_cell(q, |_, _| {}).accepted).sum()
    };
    lines.push(row!("n", "FS tuples", "SC tuples", "measured", "Eq. 29"));
    for n in 2..=4 {
        let (fs, sc) = (accepted(&generate_fs(n)), accepted(&shift_collapse(n)));
        lines.push(row!(
            n,
            grouped(fs),
            grouped(sc),
            format!("{:.2}", fs as f64 / sc as f64),
            format!("{:.2}", theory::fs_over_sc_ratio(n))
        ));
    }
    check("E1", &lines);
}

// ---------------------------------------------------------------------------
// E2–E6 — Figs. 8 and 9 and §5.3 from the calibrated machine model
// ---------------------------------------------------------------------------

fn model(machine: MachineProfile) -> MdCostModel {
    MdCostModel::new(SilicaWorkload::silica(), machine)
}

fn step_s(model: &MdCostModel, method: Method, grain: f64) -> f64 {
    model.step_time(method, grain).total_s()
}

fn sc_to_hybrid(model: &MdCostModel, hi: f64) -> String {
    match model.crossover(Method::ShiftCollapse, Method::Hybrid, 24.0, hi) {
        Some(x) => format!("{x:.0}"),
        None => "none".into(),
    }
}

#[test]
fn e2_e3_granularity() {
    let mut lines = vec![];
    // The paper's N/P = 24 speedups and crossover per platform.
    for (label, machine, paper_speedups, paper_crossover) in [
        ("Xeon", MachineProfile::xeon(), "10.5× / 9.7×", "2095"),
        ("BG/Q", MachineProfile::bgq(), "5.7× / 5.1×", "425"),
    ] {
        let m = model(machine);
        let sc = step_s(&m, Method::ShiftCollapse, 24.0);
        let (fs, hy) = (step_s(&m, Method::FullShell, 24.0), step_s(&m, Method::Hybrid, 24.0));
        lines.push(row!(
            format!("{label}, N/P = 24: SC speedup over FS / Hybrid"),
            paper_speedups,
            format!("{:.1}× / {:.1}×", fs / sc, hy / sc)
        ));
        lines.push(row!(
            format!("{label}: SC→Hybrid crossover"),
            format!("N/P ≈ {paper_crossover}"),
            format!("N/P ≈ {}", sc_to_hybrid(&m, 1e6))
        ));
    }
    // Why the fine-grain factors stop near 4: the message and import ratios.
    let xeon = model(MachineProfile::xeon());
    let (sc, fs) =
        (xeon.step_time(Method::ShiftCollapse, 24.0), xeon.step_time(Method::FullShell, 24.0));
    lines.push(format!(
        "message-count ratio ({}/{} ≈ {:.1}) and import ratio (≈ {:.1})",
        fs.messages,
        sc.messages,
        fs.messages / sc.messages,
        fs.ghosts / sc.ghosts
    ));

    // Runtime per step vs granularity.
    for machine in [MachineProfile::xeon(), MachineProfile::bgq()] {
        let m = model(machine);
        lines.push(row!(
            format!("N/P ({})", m.machine.name),
            "SC-MD (ms)",
            "FS-MD (ms)",
            "Hybrid-MD (ms)",
            "FS/SC",
            "Hyb/SC"
        ));
        for grain in
            [24.0, 50.0, 100.0, 200.0, 425.0, 800.0, 1500.0, 2095.0, 3000.0, 6000.0, 12000.0]
        {
            let [sc, fs, hy] = Method::ALL.map(|method| step_s(&m, method, grain));
            lines.push(row!(
                grain,
                format!("{:.3}", sc * 1e3),
                format!("{:.3}", fs * 1e3),
                format!("{:.3}", hy * 1e3),
                format!("{:.2}", fs / sc),
                format!("{:.2}", hy / sc)
            ));
        }
    }

    // Ablation: the SC→Hybrid crossover against r_cut3 / r_cut2.
    let w = SilicaWorkload::silica();
    lines.push(format!(
        "silica's own ratio is {:.4} ({} / {} Å)",
        w.rcut3 / w.rcut2,
        w.rcut3,
        w.rcut2
    ));
    lines.push(row!("r_cut3 / r_cut2", "Xeon crossover N/P", "BG/Q crossover N/P"));
    for ratio in [0.3, 0.4, 0.47, 0.6, 0.7, 0.8, 0.9] {
        let at = |machine| {
            let mut m = model(machine);
            m.workload.rcut3 = m.workload.rcut2 * ratio;
            sc_to_hybrid(&m, 1e7)
        };
        lines.push(row!(
            format!("{ratio:.2}"),
            grouped(at(MachineProfile::xeon())),
            grouped(at(MachineProfile::bgq()))
        ));
    }
    check("E2/E3", &lines);
}

/// One strong-scaling cell as the document prints it: `53.7× (83.9%)`.
fn speedup(p: &shift_collapse_md::netmodel::ScalingPoint) -> String {
    format!("{}× ({:.1}%)", grouped(format!("{:.1}", p.speedup)), p.efficiency * 100.0)
}

#[test]
fn e4_e5_strong_scaling() {
    let mut lines = vec![];
    for (label, machine, atoms, cores, paper) in [
        (
            "Xeon",
            MachineProfile::xeon(),
            0.88e6,
            &[12usize, 24, 48, 96, 192, 384, 768][..],
            ["59.3× (92.6%)", "24.5× (38.3%) / 17.1× (26.8%)"],
        ),
        (
            "BG/Q",
            MachineProfile::bgq(),
            0.79e6,
            &[16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192][..],
            ["465.6× (90.9%)", "55.1× (10.8%) / 95.2× (18.6%)"],
        ),
    ] {
        let m = model(machine);
        let [sc, fs, hy] =
            Method::ALL.map(|method| m.strong_scaling(method, atoms, cores, cores[0]));
        let top = cores.len() - 1;
        let p = cores[top];
        lines.push(row!(
            format!("{label} {p} cores ({:.2}M atoms): SC", atoms / 1e6),
            paper[0],
            speedup(&sc[top])
        ));
        lines.push(row!(
            format!("{label} {p}: FS / Hybrid"),
            paper[1],
            format!("{} / {}", speedup(&fs[top]), speedup(&hy[top]))
        ));
        lines.push(row!(format!("cores ({label})"), "N/P", "SC-MD", "FS-MD", "Hybrid-MD"));
        for (i, &p) in cores.iter().enumerate() {
            lines.push(row!(
                p,
                grouped(format!("{:.0}", atoms / p as f64)),
                speedup(&sc[i]),
                speedup(&fs[i]),
                speedup(&hy[i])
            ));
        }
    }
    check("E4/E5", &lines);
}

#[test]
fn e6_extreme_scale() {
    let m = model(MachineProfile::bgq());
    let atoms = 50.3e6;
    let cores = [128usize, 512, 2048, 8192, 32_768, 131_072, 524_288];
    let curve = m.strong_scaling(Method::ShiftCollapse, atoms, &cores, cores[0]);
    let mut lines = vec![
        row!(
            "SC speedup at 524 288 cores (ref 128)",
            "3764.6× (91.9%)",
            speedup(&curve[cores.len() - 1])
        ),
        row!("cores", "N/P", "SC-MD"),
    ];
    for (p, point) in cores.iter().zip(&curve) {
        lines.push(row!(grouped(p), grouped(format!("{:.0}", atoms / *p as f64)), speedup(point)));
    }
    check("E6", &lines);
}

// ---------------------------------------------------------------------------
// E9 — §6 extensions: reach-k patterns and the midpoint comparison
// ---------------------------------------------------------------------------

/// Distinct (axis, direction) hops a pattern's neighbour ranks sit on.
fn hops(neighbours: &[IVec3]) -> usize {
    let mut dirs: Vec<(usize, i32)> = neighbours
        .iter()
        .flat_map(|o| [o.x, o.y, o.z].into_iter().enumerate().filter(|&(_, c)| c != 0))
        .map(|(axis, c)| (axis, c.signum()))
        .collect();
    dirs.sort_unstable();
    dirs.dedup();
    dirs.len()
}

#[test]
fn e9_reach_and_midpoint_counts() {
    let mut lines =
        vec![row!("n", "k", "`\\|Ψ_FS\\|`", "`\\|Ψ_SC\\|`", "imports, l = 2", "search ratio")];
    for (n, k) in [(2usize, 1u32), (2, 2), (2, 3), (3, 1), (3, 2)] {
        let (fs, sc) = (generate_fs_reach(n, k as i32), shift_collapse_reach(n, k as i32));
        assert_eq!(fs.len() as u64, reach_theory::fs_path_count(n, k), "E9: built |Ψ_FS({n},{k})|");
        assert_eq!(sc.len() as u64, reach_theory::sc_path_count(n, k), "E9: built |Ψ_SC({n},{k})|");
        lines.push(row!(
            n,
            k,
            grouped(fs.len()),
            grouped(sc.len()),
            import_volume_cubic(2, &sc),
            format!("{:.3}", reach_theory::search_volume_ratio(n, k))
        ));
    }
    lines.push(format!(
        "`|Ψ_SC(2,2)| = {}`, `|Ψ_SC(3,2)| = {}`",
        reach_theory::sc_path_count(2, 2),
        grouped(reach_theory::sc_path_count(3, 2))
    ));

    // Midpoint assignment imports on every side of the domain, as FS does;
    // SC imports only its first octant.
    let extent = IVec3::splat(2);
    let sc = neighbor_rank_offsets(extent, &shift_collapse(3));
    let midpoint = neighbor_rank_offsets(extent, &generate_fs(3));
    lines.push(format!(
        "spread over {} neighbours / {} hops against SC's {} / {}",
        midpoint.len(),
        hops(&midpoint),
        sc.len(),
        hops(&sc)
    ));
    check("E9", &lines);
}
