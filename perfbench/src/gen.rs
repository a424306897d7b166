//! Seeded input generators. The program under test only ever sees what
//! these produce; the same seed always gives the same inputs.

use nsta_bench::SkewCase;
use nsta_obs::XorShift64;
use nsta_parasitics::ast::{CapElem, DNet, ResElem, SpefFile, SpefNode, Units};
use nsta_session::Edit;

/// Seeded generator; `stream` keeps the draws of different inputs of one
/// run independent of each other.
pub struct Rng(XorShift64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        // splitmix64 finalizer: consecutive seeds give unrelated states.
        let mut z = seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03);
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng(XorShift64::new(z ^ (z >> 31)))
    }

    /// Uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.0.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, bound: u64) -> u64 {
        self.0.next_below(bound)
    }
}

/// Groups of the `bus-varied` design.
pub const VARIED_GROUPS: usize = 16;

/// One `bus-varied` group's extraction: every wire of the group (victim and
/// both aggressors) is cut into `segments` RC segments with the canonical
/// wire totals scaled by `r_scale` / `c_scale`; the victim couples to its
/// near and far aggressors through the canonical 50 fF scaled by
/// `near_cm_scale` / `far_cm_scale`.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupParams {
    pub segments: usize,
    pub r_scale: f64,
    pub c_scale: f64,
    pub near_cm_scale: f64,
    pub far_cm_scale: f64,
}

/// Draws the `bus-varied` groups. Each parameter's range is cut into 16
/// equal strata; group `g` draws its segment count (8–48), R/C total
/// scales (×0.6–1.6) and coupling scales (×0.6–1.4) uniformly from one
/// stratum each, picked by a fixed permutation per parameter. So no two
/// groups share an extraction (no two victims share a topology key), and
/// every seed builds the same mix of mesh sizes in the same places: the
/// bus's early groups keep their far aggressor (three coupled lines), and a
/// seed that moved the big meshes to or from them would change the op's
/// work, not just its values. Groups 1–5 get the biggest meshes.
pub fn varied_groups(seed: u64) -> Vec<GroupParams> {
    let mut rng = Rng::new(seed, 1);
    let n = VARIED_GROUPS;
    let mut draw = |g: usize, stride: usize, lo: f64, hi: f64| {
        let stratum = (g * stride) % n;
        lo + (hi - lo) * (stratum as f64 + rng.unit()) / n as f64
    };
    (0..n)
        .map(|g| GroupParams {
            segments: draw(g, 15, 8.0, 48.0).round() as usize,
            r_scale: draw(g, 5, 0.6, 1.6),
            c_scale: draw(g, 3, 0.6, 1.6),
            near_cm_scale: draw(g, 7, 0.6, 1.4),
            far_cm_scale: draw(g, 11, 0.6, 1.4),
        })
        .collect()
}

/// The uniform RC chain of one wire: ground caps on `name:1..=segments`
/// and a resistor ladder from the net's base node through them.
fn rc_chain(name: &str, segments: usize, seg_r: f64, seg_c: f64) -> (Vec<CapElem>, Vec<ResElem>) {
    let mut caps = Vec::with_capacity(segments + 2);
    let mut ress = Vec::with_capacity(segments);
    let mut prev = SpefNode::net(name);
    for k in 1..=segments {
        let node = SpefNode::sub(name, &k.to_string());
        caps.push(CapElem {
            id: k as u64,
            a: node.clone(),
            b: None,
            value: seg_c,
        });
        ress.push(ResElem {
            id: k as u64,
            a: prev,
            b: node.clone(),
            value: seg_r,
        });
        prev = node;
    }
    (caps, ress)
}

/// The `bus-varied` extraction for `nsta_bench::busgen::netlist(groups.len())`,
/// built on the parasitics AST with the canonical bus's layout: the two
/// coupling caps sit a third and two thirds of the way down the victim.
pub fn varied_spef(groups: &[GroupParams]) -> SpefFile {
    const WIRE_R: f64 = 25.5;
    const WIRE_C: f64 = 28.8e-15;
    const CM: f64 = 50e-15;
    let mut nets = Vec::with_capacity(3 * groups.len());
    for (g, p) in groups.iter().enumerate() {
        let seg_r = WIRE_R * p.r_scale / p.segments as f64;
        let seg_c = WIRE_C * p.c_scale / p.segments as f64;
        let wire_c = seg_c * p.segments as f64;
        let (victim, near, far) = (format!("v{g}"), format!("gn{g}"), format!("gf{g}"));
        let (near_cm, far_cm) = (CM * p.near_cm_scale, CM * p.far_cm_scale);
        let (mut caps, ress) = rc_chain(&victim, p.segments, seg_r, seg_c);
        let taps = [p.segments.div_ceil(3), (2 * p.segments).div_ceil(3)];
        for (k, (aggressor, cm)) in [(&near, near_cm), (&far, far_cm)].into_iter().enumerate() {
            caps.push(CapElem {
                id: (p.segments + 1 + k) as u64,
                a: SpefNode::sub(&victim, &taps[k].to_string()),
                b: Some(SpefNode::sub(aggressor, "1")),
                value: cm,
            });
        }
        nets.push(DNet {
            name: victim,
            total_cap: wire_c + near_cm + far_cm,
            conns: Vec::new(),
            caps,
            ress,
        });
        for (aggressor, cm) in [(near, near_cm), (far, far_cm)] {
            let (caps, ress) = rc_chain(&aggressor, p.segments, seg_r, seg_c);
            nets.push(DNet {
                name: aggressor,
                total_cap: wire_c + cm,
                conns: Vec::new(),
                caps,
                ress,
            });
        }
    }
    SpefFile {
        design: "bus".into(),
        divider: '/',
        delimiter: ':',
        units: Units::default(),
        ports: Vec::new(),
        nets,
    }
}

/// Op `i` of the `eco-stream` edit stream on a `groups`-group bus. Kinds
/// rotate load → drive resistance → re-annotation; each targets a seeded
/// group. A re-annotation rescales the victim's *original* extraction
/// (`seed_spef`) by a factor in [0.85, 1.15), so however long the stream
/// runs, the design stays within ±15% of the one the session opened on.
pub fn eco_edit(rng: &mut Rng, i: usize, groups: usize, seed_spef: &SpefFile) -> Option<Edit> {
    let g = rng.below(groups as u64);
    Some(match i % 3 {
        0 => Edit::SetLoad {
            port: format!("y{g}"),
            farads: (5 + rng.below(50)) as f64 * 1e-15,
        },
        1 => Edit::SetDriveResistance {
            net: format!("v{g}"),
            ohms: (120 + rng.below(240)) as f64,
        },
        _ => {
            let mut dnet = seed_spef.net(&format!("v{g}"))?.clone();
            let scale = 0.85 + 0.3 * rng.unit();
            for cap in &mut dnet.caps {
                cap.value *= scale;
            }
            dnet.total_cap *= scale;
            Edit::ReannotateNet { dnet }
        }
    })
}

/// Largest seeded shift of a noise-injection case from its grid point (s).
const SKEW_JITTER: f64 = 0.25e-12;

/// Noise-injection cases for one Fig. 1 configuration: `n` aggressor
/// skews over the paper's ±0.5 ns window, all aggressors switching
/// together as in Table 1. The window is cut into `n` equal cells; each
/// skew sits at its cell's centre, shifted by the seed within
/// ±`SKEW_JITTER`. The shift is kept that small on purpose: between
/// +80 ps and +440 ps SGDP's error swings by up to 7 ps per ps of skew and
/// jumps by tens of ps at some alignments, so any wider draw would make
/// the accuracy metrics measure the seed instead of the reduction.
pub fn skew_cases(seed: u64, stream: u64, aggressors: usize, n: usize) -> Vec<SkewCase> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|k| {
            let centre = -0.5e-9 + 1e-9 * (k as f64 + 0.5) / n as f64;
            let skew = centre + SKEW_JITTER * (2.0 * rng.unit() - 1.0);
            SkewCase {
                skews: vec![skew; aggressors],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nsta_parasitics::write_spef;

    #[test]
    fn same_seed_gives_byte_identical_spef() {
        let a = write_spef(&varied_spef(&varied_groups(7)));
        let b = write_spef(&varied_spef(&varied_groups(7)));
        assert_eq!(a, b);
        assert_ne!(a, write_spef(&varied_spef(&varied_groups(8))));
    }

    #[test]
    fn every_seed_draws_each_group_from_its_own_strata() {
        for seed in 1..20 {
            let groups = varied_groups(seed);
            for (g, p) in groups.iter().enumerate() {
                let lo = 8.0 + 2.5 * ((15 * g) % 16) as f64;
                assert!((lo.round() as usize..=(lo + 2.5).round() as usize).contains(&p.segments));
                assert!((0.6..1.6).contains(&p.r_scale) && (0.6..1.6).contains(&p.c_scale));
                assert!(
                    (0.6..1.4).contains(&p.near_cm_scale) && (0.6..1.4).contains(&p.far_cm_scale)
                );
                for q in &groups[g + 1..] {
                    assert_ne!(p, q);
                }
            }
        }
    }

    #[test]
    fn skew_cases_sit_on_the_grid_of_cell_centres() {
        let cases = skew_cases(5, 0, 2, 8);
        for (k, c) in cases.iter().enumerate() {
            let centre = -0.5e-9 + (k as f64 + 0.5) * 0.125e-9;
            assert!((c.skews[0] - centre).abs() <= SKEW_JITTER);
            assert_eq!(c.skews[0], c.skews[1]);
        }
        assert_eq!(cases, skew_cases(5, 0, 2, 8));
        assert_ne!(cases, skew_cases(6, 0, 2, 8));
    }
}
