//! The two input families a workload runs on, as kernel × machine cells.
//!
//! - `paper`: the paper's evaluation, all 10 Table 1 kernels on all 4
//!   Imagine register-file organisations.
//! - `explore`: seeded explore-family machines, one
//!   [`DesignSpace::sample`] draw per (clusters, ALUs, buses) stratum,
//!   × {Merge, FFT, Sort}.
//!
//! Every stage (compile, serve, oracle) runs on the same cells, so every
//! metric means the same thing on both workloads.

use csched::kernels::Workload;
use csched::machine::gen::{DesignPoint, DesignSpace, Rng};
use csched::machine::{imagine, Architecture};

/// The kernels the oracle stage runs on, and the explore family's
/// kernels. At the oracle's budget these are the kernels on which it
/// decides some cells; on the other Table 1 kernels it decides only the
/// central machine.
pub const ORACLE_KERNELS: [&str; 3] = ["Merge", "FFT", "Sort"];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Paper,
    Explore,
}

impl Family {
    pub const ALL: [Family; 2] = [Family::Paper, Family::Explore];

    pub fn name(self) -> &'static str {
        match self {
            Family::Paper => "paper",
            Family::Explore => "explore",
        }
    }

    pub fn parse(name: &str) -> Option<Family> {
        Family::ALL.into_iter().find(|f| f.name() == name)
    }
}

/// How a cell's machine is made, so the oracle stage can build it
/// afresh per cell as the gap pass does.
#[derive(Clone, Debug, PartialEq)]
pub enum Recipe {
    /// Index into [`imagine::all_variants`].
    Imagine(usize),
    Point(DesignPoint),
}

impl Recipe {
    pub fn build(&self) -> Result<Architecture, String> {
        match self {
            Recipe::Imagine(0) => Ok(imagine::central()),
            Recipe::Imagine(1) => Ok(imagine::clustered(2)),
            Recipe::Imagine(2) => Ok(imagine::clustered(4)),
            Recipe::Imagine(3) => Ok(imagine::distributed()),
            Recipe::Imagine(i) => Err(format!("no Imagine variant {i}")),
            Recipe::Point(p) => p.build().map_err(|e| e.to_string()),
        }
    }
}

pub struct Machine {
    pub recipe: Recipe,
    pub arch: Architecture,
    /// The machine in the wire's text format.
    pub text: String,
}

pub struct Cells {
    pub workloads: Vec<Workload>,
    /// Each workload's kernel in the wire's text format.
    pub kernel_texts: Vec<String>,
    pub machines: Vec<Machine>,
    /// `(workload, machine)` indices in the seeded visiting order.
    pub order: Vec<(usize, usize)>,
}

impl Cells {
    pub fn name(&self, (w, m): (usize, usize)) -> String {
        format!(
            "{} on {}",
            self.workloads[w].kernel.name(),
            self.machines[m].arch.name()
        )
    }

    /// The cells, in visiting order, that the oracle stage runs on.
    pub fn oracle_order(&self) -> Vec<(usize, usize)> {
        self.order
            .iter()
            .copied()
            .filter(|&(w, _)| ORACLE_KERNELS.contains(&self.workloads[w].kernel.name()))
            .collect()
    }
}

/// The explore family's machine set: one [`DesignSpace::sample`] draw
/// from each (clusters, ALUs, buses) stratum of the default explore
/// space, with two write ports.
///
/// Stratifying on the axes that decide the search's difficulty keeps
/// every seed's set equally hard; the seed draws the register-file
/// capacity within each stratum. Single-write-port machines are left
/// out: the oracle decides none of them within any budget tried, and on
/// 27 of their Sort cells the heuristic exhausts its own budget, which
/// would time the heuristic's give-up path.
pub fn explore_machines(seed: u64) -> Vec<DesignPoint> {
    let full = DesignSpace::default();
    let mut rng = Rng::new(seed);
    let mut points = Vec::new();
    for clusters in full.clusters.0..=full.clusters.1 {
        for alus in full.alus.0..=full.alus.1 {
            for buses in full.buses.0..=full.buses.1 {
                let stratum = DesignSpace {
                    clusters: (clusters, clusters),
                    alus: (alus, alus),
                    buses: (buses, buses),
                    write_ports: (2, 2),
                    ..full.clone()
                };
                points.extend(stratum.sample(&mut rng));
            }
        }
    }
    points
}

/// Builds the family's cells and checks every kernel against its scalar
/// reference. The seed orders the cells and, for `explore`, draws the
/// machines.
pub fn setup(family: Family, seed: u64) -> Result<Cells, String> {
    let (workloads, recipes) = match family {
        Family::Paper => (
            csched::kernels::all(),
            (0..4).map(Recipe::Imagine).collect::<Vec<_>>(),
        ),
        Family::Explore => (
            ORACLE_KERNELS
                .iter()
                .map(|k| csched::kernels::by_name(k).ok_or_else(|| format!("no kernel {k}")))
                .collect::<Result<Vec<_>, _>>()?,
            explore_machines(seed)
                .into_iter()
                .map(Recipe::Point)
                .collect(),
        ),
    };
    for w in &workloads {
        w.self_check()?;
    }
    let kernel_texts = workloads
        .iter()
        .map(|w| csched::ir::text::print(&w.kernel))
        .collect();
    let machines = recipes
        .into_iter()
        .map(|recipe| {
            let arch = recipe.build()?;
            let text = csched::machine::text::print(&arch);
            Ok(Machine { recipe, arch, text })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let mut order: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..machines.len()).map(move |m| (w, m)))
        .collect();
    shuffle(&mut order, seed);
    Ok(Cells {
        workloads,
        kernel_texts,
        machines,
        order,
    })
}

pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = Rng::new(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}
