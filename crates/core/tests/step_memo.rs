//! Differential test of the per-climb `ParetoStep` memo at paper scale.
//!
//! The memoized arena climb must make exactly the moves of a reference
//! climb that recomputes every step through the public `pareto_step_in`,
//! which starts from an empty memo on each call. The queries are the
//! paper's 50-table chain, star and cycle graphs with MinMax selectivities
//! under the 3-metric resource model, where most subtrees survive a move
//! unchanged and the memo hits often.

use moqo_core::arena::{PlanArena, PlanId};
use moqo_core::climb::{pareto_climb_in, pareto_step_in, ClimbConfig, ClimbStats, StepScratch};
use moqo_core::model::CostModel;
use moqo_core::random_plan::random_plan_in;
use moqo_cost::resource::ResourceCostModel;
use moqo_workload::{GraphShape, SelectivityMethod, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `ParetoClimb` as the seed wrote it: a fresh step per climbing move.
fn reference_climb<M: CostModel>(
    arena: &mut PlanArena,
    start: PlanId,
    model: &M,
    cfg: &ClimbConfig,
    scratch: &mut StepScratch,
) -> (PlanId, ClimbStats) {
    let mut current = start;
    let mut stats = ClimbStats::default();
    while stats.steps < cfg.max_steps {
        let step = pareto_step_in(arena, current, model, cfg.policy, cfg.mutations, scratch);
        let cost = *arena.node(current).cost();
        match step
            .into_iter()
            .find(|&m| arena.node(m).cost().strictly_dominates(&cost))
        {
            Some(better) => {
                current = better;
                stats.steps += 1;
            }
            None => break,
        }
    }
    (current, stats)
}

#[test]
fn memoized_climb_matches_fresh_steps_on_paper_scale_queries() {
    let cfg = ClimbConfig::default();
    let mut total_hits = 0;
    for shape in [GraphShape::Chain, GraphShape::Star, GraphShape::Cycle] {
        let (catalog, query) = WorkloadSpec {
            tables: 50,
            shape,
            selectivity: SelectivityMethod::MinMax,
            seed: 5,
        }
        .generate();
        let model = ResourceCostModel::full(catalog);
        let query = query.tables();
        for seed in 1u64..=5 {
            // One arena and one scratch per side for several climbs,
            // cleared between climbs as `Rmq` does: cleared arenas reuse
            // ids, which a stale memo entry would misread.
            let (mut arena, mut ref_arena) = (PlanArena::new(), PlanArena::new());
            let (mut scratch, mut ref_scratch) = (StepScratch::default(), StepScratch::default());
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ref_rng = StdRng::seed_from_u64(seed);
            for climb in 0..3 {
                arena.clear();
                ref_arena.clear();
                let start = random_plan_in(&mut arena, &model, query, &mut rng);
                assert_eq!(
                    start,
                    random_plan_in(&mut ref_arena, &model, query, &mut ref_rng)
                );
                let (opt, stats) = pareto_climb_in(&mut arena, start, &model, &cfg, &mut scratch);
                let (ref_opt, ref_stats) =
                    reference_climb(&mut ref_arena, start, &model, &cfg, &mut ref_scratch);
                let case = format!("{shape:?} seed {seed} climb {climb}");
                assert_eq!(opt, ref_opt, "optimum diverged: {case}");
                assert_eq!(stats, ref_stats, "path diverged: {case}");
                assert_eq!(
                    scratch.take_screen(),
                    ref_scratch.take_screen(),
                    "screen tallies diverged: {case}"
                );
                assert_eq!(arena.len(), ref_arena.len(), "arenas diverged: {case}");
                assert_eq!(ref_scratch.take_step_memo_hits(), 0);
                total_hits += scratch.take_step_memo_hits();
            }
        }
    }
    assert!(total_hits > 0, "the memo never hit at paper scale");
}
