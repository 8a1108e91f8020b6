//! The three workloads: their inputs, configuration and set-up.

use std::cell::RefCell;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use ci_datagen::{
    dblp_workload, generate_dblp, generate_imdb, imdb_user_log_workload, DblpConfig, ImdbConfig,
};
use ci_graph::{MergeSpec, WeightConfig};
use ci_rank::{BuildStage, CiRankConfig, EngineBuilder, EngineSnapshot, IndexKind, StageReport};
use ci_storage::{persist, Database};

use crate::spans::SpanLog;

/// Expansion cap (pops) of every workload: the bench fixtures' cap.
pub const EXPANSION_CAP: usize = 3_000;
/// Answers per query.
pub const K: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bench-scale DBLP, synthetic mix, set up from a dump on two build
    /// threads; one client on one warm session.
    DblpMergeWarm,
    /// Bench-scale IMDB with person merge, user-log mix, set up from the
    /// database on one thread; one client, a fresh session per query.
    ImdbUserlogCold,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::DblpMergeWarm, Workload::ImdbUserlogCold];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DblpMergeWarm => "dblp_merge_warm",
            Workload::ImdbUserlogCold => "imdb_userlog_cold",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the client keeps one session, and so its caches, for the
    /// whole run, warmed by an untimed pass over the catalogue before
    /// anything is measured; otherwise every query opens a fresh session.
    pub fn warm(self) -> bool {
        self == Workload::DblpMergeWarm
    }
}

/// Where set-up starts from.
pub enum Source {
    Database(Database),
    /// A `persist` dump written before any timing.
    Dump(PathBuf),
}

/// A workload's generated inputs. Nothing here is timed.
pub struct Inputs {
    pub source: Source,
    pub config: CiRankConfig,
    /// The fixed query catalogue; the run's seed only orders it.
    pub catalogue: Vec<String>,
    /// A dump of the database in memory, for timing `persist::load` on
    /// workloads whose set-up does not load one.
    pub dump_bytes: Vec<u8>,
}

/// Builds the workload's inputs. The datasets and catalogues are the bench
/// fixtures' (data seed 42, query seed 11), fixed so that the exact share
/// is a property of the engine rather than of the sample drawn.
pub fn prepare(w: Workload, out_dir: &Path) -> Result<Inputs, String> {
    let (db, config, catalogue) = match w {
        Workload::DblpMergeWarm => {
            let data = generate_dblp(DblpConfig {
                papers: 500,
                authors: 250,
                conferences: 10,
                seed: 42,
                ..Default::default()
            });
            let queries = dblp_workload(&data, 51, 11);
            let config = CiRankConfig {
                weights: WeightConfig::dblp_default(),
                ..engine_config(2)
            };
            (data.db, config, queries)
        }
        Workload::ImdbUserlogCold => {
            let data = generate_imdb(ImdbConfig {
                movies: 250,
                actors: 160,
                actresses: 120,
                directors: 40,
                producers: 30,
                companies: 20,
                seed: 42,
                ..Default::default()
            });
            let queries = imdb_user_log_workload(&data, 140, 11);
            let t = &data.tables;
            let config = CiRankConfig {
                weights: WeightConfig::imdb_default(),
                merge: Some(MergeSpec::over(vec![
                    t.actor, t.actress, t.director, t.producer,
                ])),
                ..engine_config(1)
            };
            (data.db, config, queries)
        }
    };
    let catalogue: Vec<String> = catalogue
        .into_iter()
        .map(|q| q.keywords.join(" "))
        .collect();
    let mut dump_bytes = Vec::new();
    persist::dump(&db, &mut dump_bytes).map_err(|e| format!("dump: {e}"))?;
    let source = if w == Workload::DblpMergeWarm {
        let path = out_dir.join(format!("{}.dump", w.name()));
        std::fs::write(&path, &dump_bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        Source::Dump(path)
    } else {
        Source::Database(db)
    };
    Ok(Inputs {
        source,
        config,
        catalogue,
        dump_bytes,
    })
}

fn engine_config(build_threads: usize) -> CiRankConfig {
    CiRankConfig {
        diameter: 4,
        k: K,
        index: IndexKind::Star { relations: None },
        max_expansions: Some(EXPANSION_CAP),
        build_threads,
        ..Default::default()
    }
}

/// A build stage's span name and the per-layer metric of its median time.
pub fn stage_names(stage: BuildStage) -> (&'static str, &'static str) {
    match stage {
        BuildStage::Graph => ("build.graph", "build.graph_ms"),
        BuildStage::TextIndex => ("build.text_index", "build.text_index_ms"),
        BuildStage::Importance => ("build.importance", "build.importance_ms"),
        BuildStage::Prestige => ("build.prestige", "build.prestige_ms"),
        BuildStage::Dampening => ("build.dampening", "build.dampening_ms"),
        BuildStage::DistanceIndex => ("build.distance_index", "build.distance_index_ms"),
    }
}

/// Set-up: from the workload's input to a serving snapshot. With a log,
/// records a `setup` span whose children are `storage.load` (dump
/// workloads) and `core.build`, and the build stages under the latter.
pub fn set_up(inputs: &Inputs, mut log: Option<&mut SpanLog>) -> Result<EngineSnapshot, String> {
    let root = log.as_mut().map(|l| l.begin("setup", None, None));
    let loaded;
    let db = match &inputs.source {
        Source::Database(db) => db,
        Source::Dump(path) => {
            let span = log.as_mut().map(|l| l.begin("storage.load", root, None));
            let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
            loaded = persist::load(&mut BufReader::new(file)).map_err(|e| format!("load: {e}"))?;
            if let (Some(l), Some(s)) = (log.as_mut(), span) {
                l.end(s);
            }
            &loaded
        }
    };
    let build = log.as_mut().map(|l| l.begin("core.build", root, None));
    let reports: Rc<RefCell<Vec<(StageReport, Instant)>>> = Rc::default();
    let sink = Rc::clone(&reports);
    let snap = EngineBuilder::new(inputs.config.clone())
        .on_stage_report(move |r| sink.borrow_mut().push((r, Instant::now())))
        .build(db)
        .map_err(|e| format!("build: {e}"))?;
    if let Some(l) = log.as_mut() {
        for &(r, end) in reports.borrow().iter() {
            l.record_finished(stage_names(r.stage).0, end, r.elapsed, build);
        }
        if let Some(b) = build {
            l.end(b);
        }
        if let Some(r) = root {
            l.end(r);
        }
    }
    Ok(snap)
}
