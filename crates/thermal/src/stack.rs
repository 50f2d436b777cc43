//! Package layer descriptions and grid geometry helpers.

use oftec_floorplan::{GridDims, Rect};
use oftec_units::{Length, ThermalConductivity, VolumetricHeatCapacity};

/// What a layer does in the network, beyond conducting heat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LayerRole {
    /// Conducts only (PCB, TIMs, spreader) — the paper's `L_conduct`.
    Conduct,
    /// The silicon die: injects dynamic power and temperature-dependent
    /// leakage — `L_chip`.
    Chip,
    /// TEC cold-side interface plane — `L_TEC,Abs` (zero thickness).
    TecAbsorb,
    /// TEC mid-plane carrying the Joule generation — `L_TEC,Gen`
    /// (zero thickness; the film's conduction is attached to its edges).
    TecGenerate,
    /// TEC hot-side interface plane — `L_TEC,Rej` (zero thickness).
    TecReject,
    /// The heat sink: couples to ambient through `g_HS&fan(ω)`.
    Sink,
    /// The PCB: couples to ambient through a small constant conductance.
    Pcb,
}

/// One layer of the package stack, with its own lateral extent and grid.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LayerSpec {
    /// Human-readable name ("chip", "TIM1", ...).
    pub name: String,
    /// Role in the network.
    pub role: LayerRole,
    /// Lateral extent in package coordinates (layers are usually centered
    /// on the die).
    pub extent: Rect,
    /// Grid resolution over the extent.
    pub dims: GridDims,
    /// Layer thickness; zero for TEC interface planes.
    pub thickness: Length,
    /// Material conductivity (used for lateral conduction and vertical
    /// half-cell resistances; ignored for zero-thickness planes).
    pub conductivity: ThermalConductivity,
    /// Volumetric heat capacity (transient mode).
    pub heat_capacity: VolumetricHeatCapacity,
}

impl LayerSpec {
    /// Cell width and height.
    pub fn cell_size(&self) -> (f64, f64) {
        (
            self.extent.width().meters() / self.dims.cols as f64,
            self.extent.height().meters() / self.dims.rows as f64,
        )
    }

    /// Area of one cell in m².
    pub fn cell_area(&self) -> f64 {
        let (w, h) = self.cell_size();
        w * h
    }

    /// Rectangle of cell `(row, col)` in package coordinates.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn cell_rect(&self, row: usize, col: usize) -> Rect {
        assert!(row < self.dims.rows && col < self.dims.cols, "cell range");
        let (w, h) = self.cell_size();
        Rect::from_meters(
            self.extent.x().meters() + col as f64 * w,
            self.extent.y().meters() + row as f64 * h,
            w,
            h,
        )
    }

    /// Vertical half-cell conductance (from the cell's mid-plane to its
    /// face) over `area` m²: `k·A/(t/2)`. `None` for zero-thickness
    /// interface planes, which contribute no series resistance.
    pub fn vertical_half_conductance(&self, area: f64) -> Option<f64> {
        let t = self.thickness.meters();
        if t == 0.0 {
            None
        } else {
            Some(self.conductivity.w_per_m_k() * area / (t / 2.0))
        }
    }

    /// Returns `true` if this layer is one of the TEC sub-layers.
    pub fn is_tec(&self) -> bool {
        matches!(
            self.role,
            LayerRole::TecAbsorb | LayerRole::TecGenerate | LayerRole::TecReject
        )
    }
}

/// Builds a layer extent of the given width/height centered on `center`.
pub(crate) fn centered_extent(center: (f64, f64), width: f64, height: f64) -> Rect {
    Rect::from_meters(
        center.0 - width / 2.0,
        center.1 - height / 2.0,
        width,
        height,
    )
}

/// Series combination of two optional half-conductances (W/K). `None`
/// means "no resistance contribution" (an interface plane).
///
/// # Panics
///
/// Panics if both are `None` — two adjacent interface planes must be
/// joined by an explicit edge conductance instead.
pub(crate) fn series_halves(a: Option<f64>, b: Option<f64>) -> f64 {
    match (a, b) {
        (Some(x), Some(y)) => {
            if x == 0.0 || y == 0.0 {
                0.0
            } else {
                x * y / (x + y)
            }
        }
        (Some(x), None) | (None, Some(x)) => x,
        #[expect(
            clippy::panic,
            reason = "documented invariant: adjacent interface planes must declare an edge conductance"
        )]
        (None, None) => panic!("two adjacent interface planes need an explicit edge conductance"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(extent_mm: f64, dims: usize, thick_um: f64, k: f64) -> LayerSpec {
        LayerSpec {
            name: "test".into(),
            role: LayerRole::Conduct,
            extent: centered_extent((0.0, 0.0), extent_mm * 1e-3, extent_mm * 1e-3),
            dims: GridDims::new(dims, dims),
            thickness: Length::from_um(thick_um),
            conductivity: ThermalConductivity::from_w_per_m_k(k),
            heat_capacity: VolumetricHeatCapacity::from_j_per_m3_k(1e6),
        }
    }

    #[test]
    fn cell_geometry() {
        let l = layer(16.0, 4, 100.0, 100.0);
        let (w, h) = l.cell_size();
        assert!((w - 4e-3).abs() < 1e-12);
        assert!((h - 4e-3).abs() < 1e-12);
        assert!((l.cell_area() - 16e-6).abs() < 1e-15);
        let r = l.cell_rect(0, 0);
        assert!((r.x().meters() + 8e-3).abs() < 1e-12);
        assert!((r.y().meters() + 8e-3).abs() < 1e-12);
        let r33 = l.cell_rect(3, 3);
        assert!((r33.right().meters() - 8e-3).abs() < 1e-12);
    }

    #[test]
    fn half_conductance() {
        let l = layer(10.0, 2, 20.0, 1.75);
        // k·A/(t/2) = 1.75 · A / 1e-5.
        let a = 25e-6;
        let g = l.vertical_half_conductance(a).unwrap();
        assert!((g - 1.75 * a / 1e-5).abs() < 1e-9);
    }

    #[test]
    fn interface_plane_has_no_half() {
        let l = layer(10.0, 2, 0.0, 1.75);
        assert!(l.vertical_half_conductance(1e-6).is_none());
    }

    #[test]
    fn series_combination_rules() {
        assert!((series_halves(Some(2.0), Some(2.0)) - 1.0).abs() < 1e-12);
        assert_eq!(series_halves(Some(3.0), None), 3.0);
        assert_eq!(series_halves(None, Some(4.0)), 4.0);
        assert_eq!(series_halves(Some(0.0), Some(5.0)), 0.0);
    }

    #[test]
    #[should_panic(expected = "interface planes")]
    fn double_interface_panics() {
        let _ = series_halves(None, None);
    }

    #[test]
    fn tec_role_detection() {
        let mut l = layer(10.0, 2, 0.0, 1.0);
        assert!(!l.is_tec());
        l.role = LayerRole::TecGenerate;
        assert!(l.is_tec());
    }
}
