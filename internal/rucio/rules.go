package rucio

import (
	"fmt"
	"sort"

	"panrucio/internal/records"
	"panrucio/internal/simtime"
)

// Rule is a replication rule (paper Section 2.2): it pins the files of a
// DID at an RSE until it expires. While at least one live rule protects a
// replica, the deletion reaper must not reclaim it.
type Rule struct {
	ID        int64
	Dataset   string
	RSE       string
	CreatedAt simtime.VTime
	// ExpiresAt is the retention deadline; zero means the rule never
	// expires (pinned data, e.g. the workload's initial placements).
	ExpiresAt simtime.VTime

	files []*FileInfo
}

// Expired reports whether the rule's retention has lapsed at time t.
func (r *Rule) Expired(t simtime.VTime) bool {
	return r.ExpiresAt != 0 && t >= r.ExpiresAt
}

// RuleEngine manages replication rules and the deletion reaper over one
// Rucio instance. It is optional: simulations that do not need retention
// semantics simply never construct one.
type RuleEngine struct {
	r      *Rucio
	nextID int64
	rules  map[int64]*Rule
	// protection[lfn][rse] = live rule count
	protection map[string]map[string]int

	// Counters.
	RulesCreated   int64
	RulesExpired   int64
	ReplicasReaped int64
}

// NewRuleEngine attaches a rule engine to a Rucio instance.
func NewRuleEngine(r *Rucio) *RuleEngine {
	return &RuleEngine{
		r:          r,
		rules:      make(map[int64]*Rule),
		protection: make(map[string]map[string]int),
	}
}

// AddRule creates a rule for a catalogued dataset at an RSE with the given
// lifetime (0 = forever), triggers the transfers needed to satisfy it, and
// returns the rule. The transfer activity tags the rule's purpose.
func (e *RuleEngine) AddRule(dataset, rse string, lifetime simtime.VTime, activity records.Activity, onSatisfied func()) (*Rule, error) {
	ds, ok := e.r.Catalog().Dataset(dataset)
	if !ok {
		return nil, fmt.Errorf("rucio: rule on unknown dataset %q", dataset)
	}
	e.nextID++
	rule := &Rule{
		ID: e.nextID, Dataset: dataset, RSE: rse,
		CreatedAt: e.r.eng.Now(),
		files:     append([]*FileInfo(nil), ds.Files...),
	}
	if lifetime > 0 {
		rule.ExpiresAt = e.r.eng.Now() + lifetime
	}
	e.rules[rule.ID] = rule
	e.RulesCreated++
	for _, f := range rule.files {
		m := e.protection[f.LFN]
		if m == nil {
			m = make(map[string]int, 1)
			e.protection[f.LFN] = m
		}
		m[rse]++
	}
	e.r.EnsureReplicas(rule.files, rse, activity, 0, onSatisfied)
	return rule, nil
}

// Protected reports whether any live rule pins lfn at rse at time t.
// Expired rules do not protect, even before the reaper removes them.
func (e *RuleEngine) Protected(lfn, rse string, t simtime.VTime) bool {
	if e.protection[lfn][rse] == 0 {
		return false
	}
	// Count only live rules (protection holds raw counts; verify).
	for _, rule := range e.rules {
		if rule.RSE != rse || rule.Expired(t) {
			continue
		}
		for _, f := range rule.files {
			if f.LFN == lfn {
				return true
			}
		}
	}
	return false
}

// LiveRules returns the non-expired rules at time t, sorted by ID.
func (e *RuleEngine) LiveRules(t simtime.VTime) []*Rule {
	var out []*Rule
	for _, rule := range e.rules {
		if !rule.Expired(t) {
			out = append(out, rule)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Sweep performs one reaper pass at the current virtual time: expired
// rules are retired and their replicas dropped from the catalog unless
// another live rule still protects them. It returns the number of replicas
// reclaimed in this pass.
func (e *RuleEngine) Sweep() int {
	now := e.r.eng.Now()
	reaped := 0
	for id, rule := range e.rules {
		if !rule.Expired(now) {
			continue
		}
		for _, f := range rule.files {
			if m := e.protection[f.LFN]; m != nil {
				m[rule.RSE]--
				if m[rule.RSE] <= 0 {
					delete(m, rule.RSE)
				}
			}
			if !e.Protected(f.LFN, rule.RSE, now) && e.r.Catalog().HasReplica(f, rule.RSE) {
				e.r.Catalog().DropReplica(f, rule.RSE)
				reaped++
			}
		}
		delete(e.rules, id)
		e.RulesExpired++
	}
	e.ReplicasReaped += int64(reaped)
	return reaped
}

// StartReaper schedules periodic sweeps until the engine horizon.
func (e *RuleEngine) StartReaper(interval simtime.VTime) {
	if interval <= 0 {
		interval = simtime.Hour
	}
	var tick func()
	tick = func() {
		e.Sweep()
		e.r.eng.After(interval, tick)
	}
	e.r.eng.After(interval, tick)
}
