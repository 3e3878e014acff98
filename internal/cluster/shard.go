package cluster

import (
	"fmt"
	"io"

	"crowdsense/internal/engine"
	"crowdsense/internal/obs"
	"crowdsense/internal/obs/audit"
	"crowdsense/internal/obs/span"
	"crowdsense/internal/platform"
	"crowdsense/internal/reputation"
	"crowdsense/internal/store"
)

// Shard is one serving shard as BuildShard assembles it: the engine and,
// when configured, its WAL, live auditor and reputation store. A standalone
// platformd serves one; a cluster node serves one per led shard.
type Shard struct {
	Engine     *engine.Engine
	WAL        *store.WAL        // nil for an in-memory shard
	Auditor    *audit.Auditor    // nil unless NodeConfig.Audit
	Reputation *reputation.Store // nil unless NodeConfig.Reputation

	Recovery  store.RecoveryInfo // what replaying the WAL found and repaired
	Campaigns int                // campaigns restored or registered
	Restored  bool               // the campaigns came from the WAL, not cfg.Campaigns
}

// BuildShard assembles the serving shard cfg describes: the one assembly
// behind a standalone platformd and every shard a cluster node leads. It
// recovers cfg.StateDir ("" builds an in-memory shard), tracing the replay
// as a span.NameRecovery span on the span sinks and the auditor. The
// engine's event fan-out is the WAL, then the round journal when journal
// is non-nil, then the auditor, which also gates readiness and emits its
// spans through the engine's tracer. Recovered campaigns are restored
// (seeding the reputation store from the last checkpoint); a state
// directory holding none registers cfg.Campaigns instead. Only cfg's Name,
// StateDir, Campaigns, Engine, SpanSinks, Audit, AuditSLO, Reputation and
// ReputationPrior are read. The shard neither listens nor serves.
func BuildShard(cfg NodeConfig, journal io.Writer) (_ *Shard, err error) {
	sh := &Shard{}
	sinks := append(append([]span.Sink{}, cfg.Engine.SpanSinks...), cfg.SpanSinks...)
	var fanout []store.Store
	if cfg.Audit {
		var acfg audit.Config
		if cfg.AuditSLO != nil {
			slo := *cfg.AuditSLO
			acfg.SLO = &slo
		}
		// The auditor is a span sink: span ends feed its SLO engine.
		sh.Auditor = audit.New(acfg)
		sinks = append(sinks, sh.Auditor)
	}
	if cfg.Reputation {
		if sh.Reputation, err = reputation.NewStore(reputation.StoreConfig{PriorStrength: cfg.ReputationPrior}); err != nil {
			return nil, fmt.Errorf("reputation: %w", err)
		}
	}

	recovered := store.NewState()
	if cfg.StateDir != "" {
		sp := span.New(sinks...).Start(span.NameRecovery, span.Str("dir", cfg.StateDir))
		if sh.WAL, recovered, err = store.OpenWAL(store.WALConfig{Dir: cfg.StateDir}); err != nil {
			sp.EndWith(span.Str("error", err.Error()))
			return nil, fmt.Errorf("recover %s: %w", cfg.StateDir, err)
		}
		defer func() {
			if err != nil {
				sh.WAL.Close()
			}
		}()
		sh.Recovery = sh.WAL.Recovery()
		sp.EndWith(
			span.Int("replayed_events", int64(sh.Recovery.ReplayedEvents)),
			span.Int("snapshot_seq", int64(sh.Recovery.SnapshotSeq)),
			span.Int("segments", int64(sh.Recovery.Segments)),
			span.Int("truncated_bytes", sh.Recovery.TruncatedBytes),
			span.Int("dropped_segments", int64(sh.Recovery.DroppedSegments)),
			span.Int("campaigns", int64(len(recovered.Order))),
		)
		fanout = append(fanout, sh.WAL)
	}

	ecfg := cfg.Engine
	ecfg.NodeID = cfg.Name
	ecfg.SpanSinks = sinks
	ecfg.Reputation = sh.Reputation
	if journal != nil {
		// The round journal is derived from the same event stream as the
		// WAL: one encoder, no drift.
		js, err := platform.NewJournalStore(journal, recovered)
		if err != nil {
			return nil, err
		}
		fanout = append(fanout, js)
	}
	if sh.Auditor != nil {
		// The auditor checks each round as it settles on the emit path,
		// starting with the round Restore reopens.
		fanout = append(fanout, sh.Auditor)
		ecfg.AuditStatus = sh.Auditor.Status
	}
	ecfg.Store = store.Multi(fanout...)
	sh.Engine = engine.New(ecfg)
	if sh.Auditor != nil {
		// Audit spans land in the engine's own ring and journal.
		sh.Auditor.SetSpans(sh.Engine.SpanTracer())
	}
	if sh.Campaigns = len(recovered.Order); sh.Campaigns > 0 {
		if err := sh.Engine.Restore(recovered); err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		sh.Restored = true
		return sh, nil
	}
	for _, cc := range cfg.Campaigns {
		if err := sh.Engine.AddCampaign(cc); err != nil {
			return nil, fmt.Errorf("register %s: %w", cc.ID, err)
		}
	}
	sh.Campaigns = len(cfg.Campaigns)
	return sh, nil
}

// MetricFamilies renders the shard's engine, WAL, auditor and reputation
// families, in that order.
func (sh *Shard) MetricFamilies() []obs.Family {
	fams := sh.Engine.MetricFamilies()
	if sh.WAL != nil {
		fams = append(fams, sh.WAL.Families()...)
	}
	if sh.Auditor != nil {
		fams = append(fams, sh.Auditor.Families()...)
	}
	if sh.Reputation != nil {
		fams = append(fams, sh.Reputation.Families()...)
	}
	return fams
}

// AuditReports is the shard's /debug/audit payload: the auditor's report,
// or none without an auditor.
func (sh *Shard) AuditReports() []obs.AuditReport {
	if sh.Auditor == nil {
		return nil
	}
	return []obs.AuditReport{sh.Auditor.Report()}
}

// ReputationReports is the shard's /debug/reputation payload: the store's
// report, or none without the reputation loop.
func (sh *Shard) ReputationReports() []obs.ReputationReport {
	if sh.Reputation == nil {
		return nil
	}
	return []obs.ReputationReport{sh.Reputation.Report()}
}

// Close closes the WAL, which flushes and fsyncs what it holds. Stop the
// engine first.
func (sh *Shard) Close() error {
	if sh.WAL == nil {
		return nil
	}
	return sh.WAL.Close()
}
