package sim

import "runtime"

// Effective defaults for the package's option types, exported so callers,
// CLIs, and docs can reference the real values instead of restating them.
const (
	// DefaultMaxK is the largest erasure cardinality WorstCaseCtx examines
	// (the paper searched C(96,1) through C(96,6); 5 keeps the default run
	// interactive).
	DefaultMaxK = 5
	// DefaultMaxFailures caps the failing sets recorded verbatim per
	// cardinality (the failure count stays exact regardless).
	DefaultMaxFailures = 256
	// DefaultProfileTrials is the Monte Carlo sample count per
	// offline-node count in FailureProfileCtx. The paper used 10–34 million
	// per point; 20,000 preserves the curve shape on a laptop.
	DefaultProfileTrials = 20000
	// DefaultExhaustiveLimit switches a profile point to exact enumeration
	// when C(total, k) is at most this bound.
	DefaultExhaustiveLimit = 100000
	// DefaultOverheadTrials is the number of random retrieval orders
	// sampled by OverheadCtx.
	DefaultOverheadTrials = 10000
	// DefaultLifetimeRuns is the number of independent system lifetimes
	// SimulateLifetimeCtx draws.
	DefaultLifetimeRuns = 200
	// DefaultLifetimeMaxYears truncates lifetime runs that never lose
	// data.
	DefaultLifetimeMaxYears = 1e6
)

// cancelCheckInterval is the combination-chunk size between context checks
// in worker loops: cancellation is honored within one chunk of work, so a
// canceled WorstCase/Profile/Overhead returns promptly without paying a
// per-combination atomic load.
const cancelCheckInterval = 8192

// The package's option idiom: every Options type has a normalize() method
// (value receiver, returns the normalized copy) that replaces zero fields
// with the exported Default* constants; exported entry points call it once
// on entry and never mutate the caller's value. New option types should
// follow the same shape instead of hand-rolling setDefaults variants.

// defaultWorkers resolves a worker-count option.
func defaultWorkers(v int) int {
	if v > 0 {
		return v
	}
	return runtime.GOMAXPROCS(0)
}

// intOr returns v when positive, otherwise def.
func intOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// int64Or returns v when positive, otherwise def.
func int64Or(v, def int64) int64 {
	if v > 0 {
		return v
	}
	return def
}

// floatOr returns v when positive, otherwise def.
func floatOr(v, def float64) float64 {
	if v > 0 {
		return v
	}
	return def
}
