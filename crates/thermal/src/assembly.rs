//! Assembly of the thermal RC network from the package description.
//!
//! Produces the symmetric conductance structure behind Eq. (18)'s matrix
//! **G**: lateral edges within layers, vertical edges between facing cells
//! of adjacent layers (area-overlap weighted, HotSpot grid-model style),
//! and the two ambient couplings (fan-scaled sink top, constant PCB
//! bottom).

use crate::config::{CoolingConfig, PackageConfig};
use crate::stack::{centered_extent, series_halves, LayerRole, LayerSpec};
use oftec_floorplan::Floorplan;
use oftec_linalg::Triplets;
use oftec_units::{Length, ThermalConductivity, VolumetricHeatCapacity};

/// Volumetric heat capacities (J/(m³·K)) used for transient simulation.
mod heat_capacity {
    /// Silicon.
    pub const SILICON: f64 = 1.63e6;
    /// Thermal interface pastes.
    pub const TIM: f64 = 2.0e6;
    /// Copper (spreader, sink).
    pub const COPPER: f64 = 3.45e6;
    /// FR-4 printed circuit board.
    pub const PCB: f64 = 1.5e6;
    /// Bi₂Te₃-class superlattice film.
    pub const TEC_FILM: f64 = 1.2e6;
}

/// A layer plus its node offset in the global unknown vector.
#[derive(Debug, Clone)]
pub(crate) struct LayerGrid {
    pub spec: LayerSpec,
    pub start: usize,
}

impl LayerGrid {
    /// Global node index of cell `(row, col)`.
    pub fn node(&self, row: usize, col: usize) -> usize {
        self.start + self.spec.dims.index(row, col)
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.spec.dims.cells()
    }
}

/// The assembled (ω-independent) network structure.
#[derive(Debug, Clone)]
pub(crate) struct Network {
    pub layers: Vec<LayerGrid>,
    pub n_nodes: usize,
    /// Symmetric conduction edges `(i, j, g)` with `i < j`, in W/K.
    pub edges: Vec<(usize, usize, f64)>,
    /// Constant ambient couplings `(node, g)` in W/K (PCB convection).
    pub ambient_const: Vec<(usize, f64)>,
    /// Fan-scaled ambient couplings `(node, share)`; the node's coupling
    /// is `share · g_HS&fan(ω)` and shares sum to 1 over the sink top.
    pub ambient_fan: Vec<(usize, f64)>,
    /// Per-node heat capacity (J/K) for transient integration.
    pub capacitance: Vec<f64>,
}

impl Network {
    /// Finds the (first) layer with the given role.
    pub fn layer_by_role(&self, role: LayerRole) -> Option<&LayerGrid> {
        self.layers.iter().find(|l| l.spec.role == role)
    }

    /// Assembles the conductance matrix `G(ω)` as triplets, given the
    /// resolved fan conductance in W/K. Diagonals include the ambient
    /// couplings; the matching right-hand-side contribution is produced by
    /// [`Network::ambient_rhs`].
    pub fn conductance_triplets(&self, fan_g: f64) -> Triplets {
        let mut t = Triplets::with_capacity(
            self.n_nodes,
            self.n_nodes,
            4 * self.edges.len() + self.n_nodes,
        );
        // Ensure every diagonal entry exists in the pattern.
        for i in 0..self.n_nodes {
            t.push(i, i, 0.0);
        }
        for &(i, j, g) in &self.edges {
            t.push(i, i, g);
            t.push(j, j, g);
            t.push(i, j, -g);
            t.push(j, i, -g);
        }
        for &(i, g) in &self.ambient_const {
            t.push(i, i, g);
        }
        for &(i, share) in &self.ambient_fan {
            t.push(i, i, share * fan_g);
        }
        t
    }

    /// Right-hand-side contribution of the ambient couplings,
    /// `g_amb,i · T_amb` per node, in W.
    pub fn ambient_rhs(&self, fan_g: f64, t_amb_kelvin: f64) -> Vec<f64> {
        let mut rhs = vec![0.0; self.n_nodes];
        for &(i, g) in &self.ambient_const {
            rhs[i] += g * t_amb_kelvin;
        }
        for &(i, share) in &self.ambient_fan {
            rhs[i] += share * fan_g * t_amb_kelvin;
        }
        rhs
    }

    /// Total constant ambient conductance (PCB path), in W/K.
    #[cfg(test)]
    pub fn constant_ambient_conductance(&self) -> f64 {
        self.ambient_const.iter().map(|(_, g)| g).sum()
    }
}

/// Area overlaps between facing cells of two layers:
/// `(node_a, node_b, overlap_area_m²)`.
fn grid_overlaps(a: &LayerGrid, b: &LayerGrid) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    let (bw, bh) = b.spec.cell_size();
    let bx0 = b.spec.extent.x().meters();
    let by0 = b.spec.extent.y().meters();
    for ra in 0..a.spec.dims.rows {
        for ca in 0..a.spec.dims.cols {
            let cell = a.spec.cell_rect(ra, ca);
            // Candidate b-cell index window.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "floored and clamped at 0: a column offset inside the package extent"
            )]
            let c_lo = (((cell.x().meters() - bx0) / bw).floor().max(0.0)) as usize;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a cell index inside the package extent, clamped to [0, cols] next"
            )]
            let c_hi = ((((cell.right().meters() - bx0) / bw).ceil()) as isize)
                .clamp(0, b.spec.dims.cols as isize) as usize;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "floored and clamped at 0: a row offset inside the package extent"
            )]
            let r_lo = (((cell.y().meters() - by0) / bh).floor().max(0.0)) as usize;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a cell index inside the package extent, clamped to [0, rows] next"
            )]
            let r_hi = ((((cell.top().meters() - by0) / bh).ceil()) as isize)
                .clamp(0, b.spec.dims.rows as isize) as usize;
            for rb in r_lo..r_hi {
                for cb in c_lo..c_hi {
                    let other = b.spec.cell_rect(rb, cb);
                    let ov = cell.overlap_area(&other).square_meters();
                    if ov > 0.0 {
                        out.push((a.node(ra, ca), b.node(rb, cb), ov));
                    }
                }
            }
        }
    }
    out
}

/// Adds lateral conduction edges within one layer.
fn lateral_edges(layer: &LayerGrid, edges: &mut Vec<(usize, usize, f64)>) {
    let t = layer.spec.thickness.meters();
    if t == 0.0 {
        return; // interface planes conduct only vertically
    }
    let k = layer.spec.conductivity.w_per_m_k();
    let (cw, ch) = layer.spec.cell_size();
    let dims = layer.spec.dims;
    for r in 0..dims.rows {
        for c in 0..dims.cols {
            let me = layer.node(r, c);
            if c + 1 < dims.cols {
                // Cross-section = thickness × cell height; distance = cw.
                edges.push((me, layer.node(r, c + 1), k * t * ch / cw));
            }
            if r + 1 < dims.rows {
                edges.push((me, layer.node(r + 1, c), k * t * cw / ch));
            }
        }
    }
}

/// Adds vertical edges between adjacent layers using the default rule:
/// series combination of the two half-cell conductances over the overlap
/// area.
fn vertical_edges_default(
    lower: &LayerGrid,
    upper: &LayerGrid,
    extra_interface_h: Option<f64>,
    edges: &mut Vec<(usize, usize, f64)>,
) {
    for (i, j, area) in grid_overlaps(lower, upper) {
        let gl = lower.spec.vertical_half_conductance(area);
        let gu = upper.spec.vertical_half_conductance(area);
        let mut g = series_halves(gl, gu);
        if let Some(h) = extra_interface_h {
            let gi = h * area;
            g = if g == 0.0 { 0.0 } else { g * gi / (g + gi) };
        }
        if g > 0.0 {
            edges.push((i.min(j), i.max(j), g));
        }
    }
}

/// Builds the whole network for the given package and cooling
/// configuration. The die-aligned layers (chip, TIM1, TEC sub-layers) all
/// use `cfg.die_dims` so TEC bookkeeping is cell-to-cell.
pub(crate) fn build_network(
    fp: &Floorplan,
    cfg: &PackageConfig,
    cooling: &CoolingConfig,
) -> Network {
    cfg.assert_physical();
    let die_w = fp.width().meters();
    let die_h = fp.height().meters();
    let center = (die_w / 2.0, die_h / 2.0);

    let cv = VolumetricHeatCapacity::from_j_per_m3_k;
    let mut specs: Vec<LayerSpec> = Vec::new();

    specs.push(LayerSpec {
        name: "pcb".into(),
        role: LayerRole::Pcb,
        extent: centered_extent(center, cfg.pcb_edge.meters(), cfg.pcb_edge.meters()),
        dims: cfg.pcb_dims,
        thickness: cfg.pcb_thickness,
        conductivity: cfg.pcb_conductivity,
        heat_capacity: cv(heat_capacity::PCB),
    });
    specs.push(LayerSpec {
        name: "chip".into(),
        role: LayerRole::Chip,
        extent: fp.die_rect(),
        dims: cfg.die_dims,
        thickness: cfg.chip_thickness,
        conductivity: cfg.chip_conductivity,
        heat_capacity: cv(heat_capacity::SILICON),
    });

    // TIM1, plain or fairness-boosted depending on the cooling config.
    let (tim1_thickness, tim1_k): (Length, ThermalConductivity) = match cooling {
        CoolingConfig::FanOnly { equivalent_tec } => cfg.boosted_tim1(equivalent_tec),
        CoolingConfig::FanOnlyPlainTim { total_gap } => (*total_gap, cfg.tim_conductivity),
        CoolingConfig::HybridTec(_) => (cfg.tim1_thickness, cfg.tim_conductivity),
    };
    specs.push(LayerSpec {
        name: "tim1".into(),
        role: LayerRole::Conduct,
        extent: fp.die_rect(),
        dims: cfg.die_dims,
        thickness: tim1_thickness,
        conductivity: tim1_k,
        heat_capacity: cv(heat_capacity::TIM),
    });

    let tec_thickness = match cooling {
        CoolingConfig::HybridTec(dep) => dep.params().thickness,
        _ => Length::ZERO,
    };
    if let CoolingConfig::HybridTec(_) = cooling {
        for (name, role) in [
            ("tec_abs", LayerRole::TecAbsorb),
            ("tec_gen", LayerRole::TecGenerate),
            ("tec_rej", LayerRole::TecReject),
        ] {
            specs.push(LayerSpec {
                name: name.into(),
                role,
                extent: fp.die_rect(),
                dims: cfg.die_dims,
                thickness: Length::ZERO,
                conductivity: cfg.tim_conductivity, // unused (no lateral, no halves)
                heat_capacity: cv(heat_capacity::TEC_FILM),
            });
        }
    }

    specs.push(LayerSpec {
        name: "spreader".into(),
        role: LayerRole::Conduct,
        extent: centered_extent(
            center,
            cfg.spreader_edge.meters(),
            cfg.spreader_edge.meters(),
        ),
        dims: cfg.spreader_dims,
        thickness: cfg.spreader_thickness,
        conductivity: cfg.metal_conductivity,
        heat_capacity: cv(heat_capacity::COPPER),
    });
    specs.push(LayerSpec {
        name: "tim2".into(),
        role: LayerRole::Conduct,
        extent: centered_extent(
            center,
            cfg.spreader_edge.meters(),
            cfg.spreader_edge.meters(),
        ),
        dims: cfg.spreader_dims,
        thickness: cfg.tim2_thickness,
        conductivity: cfg.tim_conductivity,
        heat_capacity: cv(heat_capacity::TIM),
    });
    specs.push(LayerSpec {
        name: "sink".into(),
        role: LayerRole::Sink,
        extent: centered_extent(center, cfg.sink_edge.meters(), cfg.sink_edge.meters()),
        dims: cfg.sink_dims,
        thickness: cfg.sink_thickness,
        conductivity: cfg.metal_conductivity,
        heat_capacity: cv(heat_capacity::COPPER),
    });

    // Assign node offsets.
    let mut layers = Vec::with_capacity(specs.len());
    let mut start = 0;
    for spec in specs {
        let cells = spec.dims.cells();
        layers.push(LayerGrid { spec, start });
        start += cells;
    }
    let n_nodes = start;

    // Capacitances.
    let mut capacitance = vec![0.0; n_nodes];
    for l in &layers {
        let vol_per_cell = l.spec.cell_area() * l.spec.thickness.meters();
        for i in 0..l.cells() {
            capacitance[l.start + i] = if l.spec.is_tec() {
                // The film's heat lives on the gen plane; interface planes
                // get a small positive value to keep the ODE regular.
                match l.spec.role {
                    LayerRole::TecGenerate => {
                        heat_capacity::TEC_FILM * l.spec.cell_area() * tec_thickness.meters()
                    }
                    _ => 1e-6,
                }
            } else {
                l.spec.heat_capacity.j_per_m3_k() * vol_per_cell
            };
        }
    }

    // Edges.
    let mut edges = Vec::new();
    for l in &layers {
        lateral_edges(l, &mut edges);
    }
    // The stack is built a few lines above from a fixed recipe, so every
    // lookup below is an internal invariant, not an input error.
    #[expect(
        clippy::panic,
        reason = "the fixed layer recipe built a few lines up always contains this layer"
    )]
    let find = |role: LayerRole| {
        layers
            .iter()
            .find(|l| l.spec.role == role)
            .unwrap_or_else(|| panic!("layer stack recipe is missing its {role:?} layer"))
    };
    #[expect(
        clippy::panic,
        reason = "the fixed layer recipe built a few lines up always contains this layer"
    )]
    let by_name = |name: &str| {
        layers
            .iter()
            .find(|l| l.spec.name == name)
            .unwrap_or_else(|| panic!("layer stack recipe is missing the {name:?} layer"))
    };

    let pcb = find(LayerRole::Pcb);
    let chip = find(LayerRole::Chip);
    let tim1 = by_name("tim1");
    let spreader = by_name("spreader");
    let tim2 = by_name("tim2");
    let sink = find(LayerRole::Sink);

    vertical_edges_default(pcb, chip, Some(cfg.chip_pcb_interface), &mut edges);
    vertical_edges_default(chip, tim1, None, &mut edges);

    match cooling {
        CoolingConfig::HybridTec(dep) => {
            assert_eq!(
                dep.dims(),
                cfg.die_dims,
                "TEC deployment grid must match the die grid"
            );
            let abs = find(LayerRole::TecAbsorb);
            let gen = find(LayerRole::TecGenerate);
            let rej = find(LayerRole::TecReject);
            // TIM1 top half into the absorption plane.
            vertical_edges_default(tim1, abs, None, &mut edges);
            // The film itself: covered cells get the pellet conduction
            // (two 2·K halves in series = K_TEC per Figure 4); uncovered
            // cells get passive filler at TIM conductivity.
            let cell_area = abs.spec.cell_area();
            let k_cell = dep.params().thermal_conductance.w_per_k() * dep.devices_per_cell();
            let t_film = dep.params().thickness.meters();
            let g_fill_half = 2.0 * cfg.tim_conductivity.w_per_m_k() * cell_area / t_film;
            for i in 0..abs.cells() {
                let g_half = if dep.is_covered(i) {
                    2.0 * k_cell
                } else {
                    g_fill_half
                };
                edges.push((abs.start + i, gen.start + i, g_half));
                edges.push((gen.start + i, rej.start + i, g_half));
            }
            // Rejection plane into the spreader's bottom half.
            vertical_edges_default(rej, spreader, None, &mut edges);
        }
        CoolingConfig::FanOnly { .. } | CoolingConfig::FanOnlyPlainTim { .. } => {
            vertical_edges_default(tim1, spreader, None, &mut edges);
        }
    }

    vertical_edges_default(spreader, tim2, None, &mut edges);
    vertical_edges_default(tim2, sink, None, &mut edges);

    // Ambient couplings.
    let mut ambient_const = Vec::new();
    for i in 0..pcb.cells() {
        ambient_const.push((
            pcb.start + i,
            cfg.pcb_ambient_convection * pcb.spec.cell_area(),
        ));
    }
    let sink_area = cfg.sink_edge.meters() * cfg.sink_edge.meters();
    let mut ambient_fan = Vec::new();
    for i in 0..sink.cells() {
        ambient_fan.push((sink.start + i, sink.spec.cell_area() / sink_area));
    }

    Network {
        layers,
        n_nodes,
        edges,
        ambient_const,
        ambient_fan,
        capacitance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oftec_floorplan::alpha21264;
    use oftec_tec::{TecDeployment, TecDeviceParams};

    fn tec_cooling(cfg: &PackageConfig) -> CoolingConfig {
        CoolingConfig::HybridTec(TecDeployment::tile_except(
            &alpha21264(),
            cfg.die_dims,
            TecDeviceParams::superlattice_thin_film(),
            &["Icache", "Dcache"],
        ))
    }

    #[test]
    fn node_counts() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let net = build_network(&fp, &cfg, &tec_cooling(&cfg));
        // pcb 16 + chip 64 + tim1 64 + 3×TEC 192 + spreader 36 + tim2 36 + sink 25.
        assert_eq!(net.n_nodes, 16 + 64 + 64 + 192 + 36 + 36 + 25);
        let fan_only = build_network(
            &fp,
            &cfg,
            &CoolingConfig::FanOnly {
                equivalent_tec: TecDeviceParams::superlattice_thin_film(),
            },
        );
        assert_eq!(fan_only.n_nodes, 16 + 64 + 64 + 36 + 36 + 25);
    }

    #[test]
    fn matrix_is_symmetric_and_dominant() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let net = build_network(&fp, &cfg, &tec_cooling(&cfg));
        let g = net.conductance_triplets(5.0).to_csr();
        assert!(g.asymmetry().unwrap() < 1e-12);
        // Pure conduction network: strictly dominant rows are those with
        // ambient coupling; the rest are weakly dominant (margin ≥ 0).
        assert!(g.diagonal_dominance_margin() > -1e-12);
    }

    #[test]
    fn fan_shares_sum_to_one() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let net = build_network(&fp, &cfg, &tec_cooling(&cfg));
        let total: f64 = net.ambient_fan.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ambient_rhs_matches_couplings() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let net = build_network(&fp, &cfg, &tec_cooling(&cfg));
        let rhs = net.ambient_rhs(4.0, 318.15);
        let total: f64 = rhs.iter().sum();
        let expect = (4.0 + net.constant_ambient_conductance()) * 318.15;
        assert!((total - expect).abs() < 1e-6);
    }

    #[test]
    fn overlaps_conserve_area() {
        // tim2 ↔ sink: total overlap must equal the tim2 (smaller) area.
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let net = build_network(&fp, &cfg, &tec_cooling(&cfg));
        let tim2 = net.layers.iter().find(|l| l.spec.name == "tim2").unwrap();
        let sink = net.layer_by_role(LayerRole::Sink).unwrap();
        let total: f64 = grid_overlaps(tim2, sink).iter().map(|(_, _, a)| a).sum();
        let tim2_area = tim2.spec.extent.area().square_meters();
        assert!((total - tim2_area).abs() < 1e-12);
    }

    #[test]
    fn all_edges_positive_and_bounded() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14();
        let net = build_network(&fp, &cfg, &tec_cooling(&cfg));
        for &(i, j, g) in &net.edges {
            assert!(i < j, "edges must be stored i < j");
            assert!(g > 0.0 && g.is_finite(), "edge ({i},{j}) has g = {g}");
        }
    }

    #[test]
    fn capacitances_positive() {
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let net = build_network(&fp, &cfg, &tec_cooling(&cfg));
        assert!(net.capacitance.iter().all(|&c| c > 0.0));
        // Sink cells hold far more heat than chip cells.
        let chip = net.layer_by_role(LayerRole::Chip).unwrap();
        let sink = net.layer_by_role(LayerRole::Sink).unwrap();
        assert!(net.capacitance[sink.start] > 100.0 * net.capacitance[chip.start]);
    }

    #[test]
    fn covered_cells_conduct_more_than_filler() {
        // With the superlattice parameters, pellet conduction beats the
        // TIM filler — the physical basis of the baseline fairness boost.
        let fp = alpha21264();
        let cfg = PackageConfig::dac14_coarse();
        let dep = TecDeployment::tile_except(
            &fp,
            cfg.die_dims,
            TecDeviceParams::superlattice_thin_film(),
            &["Icache", "Dcache"],
        );
        let cell_area = fp.die_area().square_meters() / cfg.die_dims.cells() as f64;
        let k_cell = dep.params().thermal_conductance.w_per_k() * dep.devices_per_cell();
        let g_fill = cfg.tim_conductivity.w_per_m_k() * cell_area / dep.params().thickness.meters();
        assert!(k_cell > g_fill);
    }
}
