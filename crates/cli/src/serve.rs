//! `epvf serve` — a long-lived campaign daemon on a Unix domain socket.
//!
//! Clients send line-oriented requests; the daemon queues them and
//! executes them strictly in arrival order on one worker (campaign
//! workers already saturate the cores — overlapping campaigns would just
//! fight each other):
//!
//! ```text
//! ping                                  -> pong
//! run <target> [N] [SEED] [--shards S] [inject flags]
//!                                       -> queued <id>
//!                                          start <id>
//!                                          cache <id> hit|miss
//!                                          [sections <id> <hits> <misses>]
//!                                          [progress <id> ...]
//!                                          out <id> <summary line>...
//!                                          done <id>   (or: error <id> <msg>)
//! shutdown                              -> bye  (after the queue drains)
//! ```
//!
//! The expensive part of every campaign — the traced golden run, the
//! model's site table, and the replay checkpoints — is cached across
//! requests keyed on `(module text, entry, args, fault model, checkpoint
//! interval)`, so a repeated spec costs only the injections themselves
//! (`serve.cache.hits` / `serve.cache.misses` count the split). The ePVF
//! analysis on a miss runs compositionally against a section cache shared
//! across *all* requests (persisted with `--section-cache DIR`), so two
//! different modules that share function bodies or loop nests replay the
//! common sections instead of re-propagating them; each miss reports its
//! share as `sections <id> <hits> <misses>`. With `--shards S`, the
//! daemon runs `S` concurrent `epvf shard` worker processes over
//! temporary WALs through the same supervised launcher as
//! `epvf run-sharded` (crash/hang recovery per `--shard-retries` /
//! `--stall-timeout-ms` / `--shard-deadline-ms`, stderr captured per
//! worker and surfaced in the narration) and folds them back with the
//! same merge as `epvf merge`. On startup a leftover socket file is
//! connect-probed: stale ones are removed, live ones are an error.

use crate::CliError;

/// `epvf serve --socket PATH`.
pub(crate) fn cmd_serve(rest: &[String]) -> Result<(), CliError> {
    #[cfg(not(unix))]
    {
        let _ = rest;
        Err(CliError::usage(
            "serve requires Unix domain sockets (unsupported on this platform)",
        ))
    }
    #[cfg(unix)]
    unix::serve(rest)
}

#[cfg(unix)]
mod unix {
    use crate::{executor, flag_value, parse_inject_opts, resolve, CliError};
    use epvf_core::{analyze_compositional, EpvfConfig, EpvfResult, SectionCache};
    use epvf_ir::Module;
    use epvf_llfi::{Campaign, GoldenArtifacts, SupervisorConfig, SupervisorEvent};
    use epvf_telemetry::{add, Ctr};
    use epvf_workloads::Workload;
    use std::collections::HashMap;
    use std::hash::{Hash, Hasher};
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::sync::{Arc, Mutex};

    /// A connection's write half, shared between the handler thread (which
    /// acks `queued`) and the worker (which streams results). Whole lines
    /// are written under the lock so replies never interleave mid-line.
    type Conn = Arc<Mutex<UnixStream>>;

    fn say(conn: &Conn, line: &str) {
        if let Ok(mut s) = conn.lock() {
            let _ = writeln!(s, "{line}");
            let _ = s.flush();
        }
    }

    enum Job {
        Run {
            id: u64,
            tokens: Vec<String>,
            conn: Conn,
        },
        Shutdown {
            conn: Conn,
        },
    }

    /// Everything reusable about a prepared campaign: the owned module
    /// (campaigns borrow it), the golden artifacts, and the analysis the
    /// summary needs. One entry per distinct request key.
    struct CacheEntry {
        label: String,
        module: Module,
        args: Vec<u64>,
        artifacts: GoldenArtifacts,
        res: EpvfResult,
    }

    pub(super) fn serve(rest: &[String]) -> Result<(), CliError> {
        let mut socket: Option<PathBuf> = None;
        let mut section_dir: Option<PathBuf> = None;
        // Supervisor policy for `run ... --shards S` requests; each
        // request seeds its backoff jitter with the campaign seed.
        let mut policy = SupervisorConfig::default();
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--socket" => socket = Some(flag_value(&mut it, a)?),
                "--section-cache" => section_dir = Some(flag_value(&mut it, a)?),
                other => {
                    if !executor::policy_flag(&mut policy, other, &mut it)? {
                        return Err(CliError::usage(format!("unknown serve argument `{other}`")));
                    }
                }
            }
        }
        let socket = socket.ok_or_else(|| CliError::usage("serve requires --socket PATH"))?;
        // A leftover socket file blocks bind. Probe it first: if a
        // daemon answers the connect, starting a second one here would
        // silently steal its address — refuse instead. A dead socket
        // (connect fails) is safely removed.
        if socket.exists() {
            match UnixStream::connect(&socket) {
                Ok(_) => {
                    return Err(CliError::io(format!(
                        "{} is in use by a live daemon (connect succeeded); \
                         shut it down or pick another --socket",
                        socket.display()
                    )));
                }
                Err(_) => {
                    std::fs::remove_file(&socket).map_err(|e| {
                        CliError::io(format!("removing stale socket {}: {e}", socket.display()))
                    })?;
                    eprintln!("serve: removed stale socket {}", socket.display());
                }
            }
        }
        let listener = UnixListener::bind(&socket)
            .map_err(|e| CliError::io(format!("binding {}: {e}", socket.display())))?;
        println!("serving on {}", socket.display());

        let (tx, rx) = mpsc::channel::<Job>();
        let next_id = Arc::new(AtomicU64::new(0));
        {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    let Ok(stream) = stream else { continue };
                    let tx = tx.clone();
                    let next_id = Arc::clone(&next_id);
                    std::thread::spawn(move || handle_connection(stream, tx, next_id));
                }
            });
        }
        drop(tx);

        let mut cache: HashMap<u64, CacheEntry> = HashMap::new();
        // Section summaries from one request's analysis replay into any
        // later request whose module shares sections — finer-grained reuse
        // than the whole-artifact golden cache. In-memory unless
        // `--section-cache DIR` persists it across daemon restarts.
        let mut sections = match &section_dir {
            Some(dir) => SectionCache::persistent(dir).map_err(|e| {
                CliError::io(format!("opening section cache {}: {e}", dir.display()))
            })?,
            None => SectionCache::in_memory(),
        };
        for job in rx {
            match job {
                Job::Shutdown { conn } => {
                    say(&conn, "bye");
                    break;
                }
                Job::Run { id, tokens, conn } => {
                    say(&conn, &format!("start {id}"));
                    match handle_run(id, &tokens, &conn, &mut cache, &mut sections, &policy) {
                        Ok(()) => say(&conn, &format!("done {id}")),
                        Err(e) => say(
                            &conn,
                            &format!("error {id} {}", e.message().replace('\n', " ")),
                        ),
                    }
                }
            }
        }
        let _ = std::fs::remove_file(&socket);
        Ok(())
    }

    fn handle_connection(stream: UnixStream, tx: mpsc::Sender<Job>, next_id: Arc<AtomicU64>) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let conn: Conn = Arc::new(Mutex::new(stream));
        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            let tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            match tokens.first().map(String::as_str) {
                None => {}
                Some("ping") => say(&conn, "pong"),
                Some("shutdown") => {
                    // Enqueued like any job, so the queue drains first.
                    let _ = tx.send(Job::Shutdown {
                        conn: Arc::clone(&conn),
                    });
                }
                Some("run") => {
                    // Ids are handed out in request order; the single
                    // worker then executes the queue FIFO, so `start`
                    // lines appear in id order too.
                    let id = next_id.fetch_add(1, Ordering::SeqCst) + 1;
                    say(&conn, &format!("queued {id}"));
                    let _ = tx.send(Job::Run {
                        id,
                        tokens: tokens[1..].to_vec(),
                        conn: Arc::clone(&conn),
                    });
                }
                Some(other) => say(&conn, &format!("error 0 unknown request `{other}`")),
            }
        }
    }

    /// Cache key: everything [`GoldenArtifacts`] depend on. Module text
    /// (not the target name) so a re-dumped identical IR file hits.
    fn cache_key(module: &Module, args: &[u64], model_name: &str, ckpt_interval: u64) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        module.to_string().hash(&mut h);
        Workload::ENTRY.hash(&mut h);
        args.hash(&mut h);
        model_name.hash(&mut h);
        ckpt_interval.hash(&mut h);
        h.finish()
    }

    fn handle_run(
        id: u64,
        tokens: &[String],
        conn: &Conn,
        cache: &mut HashMap<u64, CacheEntry>,
        sections: &mut SectionCache,
        policy: &SupervisorConfig,
    ) -> Result<(), CliError> {
        let (spec, rest) = tokens
            .split_first()
            .ok_or_else(|| CliError::usage("run needs a <target>"))?;
        // Pull --shards out; everything else is ordinary inject syntax.
        let mut shards = 1usize;
        let mut forwarded: Vec<String> = Vec::new();
        let mut it = rest.iter();
        while let Some(a) = it.next() {
            if a == "--shards" {
                shards = flag_value(&mut it, a)?;
                if shards == 0 {
                    return Err(CliError::usage("bad --shards"));
                }
            } else {
                forwarded.push(a.clone());
            }
        }
        let (config, opts) = parse_inject_opts(&forwarded)?;
        if opts.wal.is_some() || opts.resume || opts.sample {
            return Err(CliError::usage(
                "serve requests take neither --wal, --resume nor --sample",
            ));
        }
        let model = opts.fault_model();

        let t = resolve(spec)?;
        let key = cache_key(&t.module, &t.args, &model.name(), config.ckpt_interval);
        // The split below keeps the serve conservation law exact: every
        // campaign request resolves its artifacts exactly once, from the
        // cache or from a fresh golden run.
        add(Ctr::ServeCampaigns, 1);
        let entry = match cache.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                add(Ctr::ServeCacheHits, 1);
                say(conn, &format!("cache {id} hit"));
                e.into_mut()
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                add(Ctr::ServeCacheMisses, 1);
                say(conn, &format!("cache {id} miss"));
                let campaign = executor::build_campaign(&t, config, &opts)?;
                let trace = campaign
                    .golden()
                    .trace
                    .as_ref()
                    .ok_or_else(|| CliError::campaign("golden run produced no trace"))?;
                // Compositional, so a fresh module still replays any
                // sections it shares with previously analyzed ones; the
                // `sections` line reports this request's share of the
                // hit/miss split.
                let before = sections.stats();
                let res = analyze_compositional(&t.module, trace, EpvfConfig::default(), sections);
                let after = sections.stats();
                say(
                    conn,
                    &format!(
                        "sections {id} {} {}",
                        after.hits - before.hits,
                        after.misses - before.misses
                    ),
                );
                let artifacts = campaign.artifacts();
                drop(campaign);
                v.insert(CacheEntry {
                    label: t.label.clone(),
                    module: t.module,
                    args: t.args,
                    artifacts,
                    res,
                })
            }
        };

        let campaign = Campaign::from_artifacts(
            &entry.module,
            Workload::ENTRY,
            &entry.args,
            config,
            model,
            entry.artifacts.clone(),
        )
        .map_err(CliError::campaign)?;
        let specs = campaign.draw_specs(opts.runs, opts.seed);

        let fi = if shards == 1 {
            campaign.run_specs(&specs)
        } else {
            // One `progress` line per finished shard, plus the
            // supervisor's narration; a shard out of retries fails the
            // request closed.
            let dir = std::env::temp_dir().join(format!("epvf-serve-{}-{id}", std::process::id()));
            let policy = SupervisorConfig {
                seed: opts.seed,
                ..policy.clone()
            };
            let merged = executor::launch(
                spec,
                &forwarded,
                shards,
                &dir,
                &policy,
                &mut |event, line| {
                    if let SupervisorEvent::Succeeded { shard, .. } = event {
                        say(conn, &format!("progress {id} shard {shard}/{shards} done"));
                    }
                    if let Some(line) = line {
                        say(conn, &format!("progress {id} {line}"));
                    }
                },
            )
            .and_then(|(report, wals)| match executor::exhausted(&report) {
                Some(why) => Err(CliError::campaign(why)),
                None => executor::merge_wals(&campaign, &specs, &wals, None),
            });
            let _ = std::fs::remove_dir_all(&dir);
            merged?.0
        };

        let (text, _) =
            executor::report(&entry.label, opts.seed, &campaign, &fi, Some(&entry.res))?;
        for line in text.lines() {
            say(conn, &format!("out {id} {line}"));
        }
        Ok(())
    }
}
