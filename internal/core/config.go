// Package core implements the paper's contribution: the client and
// server engines of a page-server DBMS with fine-granularity locking and
// client-based logging.
//
// The Server (server.go, server_recovery.go) hosts the global lock
// manager, the dirty-client table (DCT), the merge procedure, the
// replacement log records of §3.1 and the restart coordination of §3.4
// and §3.5.  The Client (client.go, txn.go, client_recovery.go) runs
// transactions entirely locally: its private write-ahead log receives
// every log record, commit forces only the local log, rollback and
// restart recovery are local (§3.3), checkpoints are independent and
// fuzzy, and log space is managed per §3.6.
//
// The competing designs that the paper's related-work section argues
// against are available as configuration modes of the same engine so
// that the benchmark harness compares them on equal substrate: page
// level locking, update-token serialization, and shipping log records
// or whole pages to the server at commit (ARIES/CSA- and
// Versant-style).
package core

import (
	"time"

	"clientlog/internal/obs/span"
)

// Granularity selects the locking granularity.
type Granularity int

const (
	// GranAdaptive is the paper's default: object-level locks with
	// adaptive page-level grants and de-escalation on conflict.
	GranAdaptive Granularity = iota
	// GranObject always uses object-level locks.
	GranObject
	// GranPage uses page-level locks only (the authors' earlier
	// page-locking system [20]; baseline for E1).
	GranPage
)

func (g Granularity) String() string {
	switch g {
	case GranAdaptive:
		return "adaptive"
	case GranObject:
		return "object"
	case GranPage:
		return "page"
	default:
		return "granularity(?)"
	}
}

// LoggingMode selects where log records go.
type LoggingMode int

const (
	// LogLocal is the paper's client-based logging: all records stay in
	// the client's private log; nothing is shipped at commit.
	LogLocal LoggingMode = iota
	// LogShipCommit ships the transaction's log records to the server at
	// commit, which forces them to the server log (ARIES/CSA-style
	// baseline for E3/E4).
	LogShipCommit
	// LogShipPages ships the transaction's log records and its dirty
	// pages at commit (Versant-style baseline for E3).
	LogShipPages
)

func (m LoggingMode) String() string {
	switch m {
	case LogLocal:
		return "client-local"
	case LogShipCommit:
		return "ship-log-at-commit"
	case LogShipPages:
		return "ship-pages-at-commit"
	default:
		return "logging(?)"
	}
}

// UpdateMode selects how concurrent updates to one page are reconciled.
type UpdateMode int

const (
	// UpdateMerge is the paper's approach: multiple clients update
	// different objects of a page concurrently and copies are merged.
	UpdateMerge UpdateMode = iota
	// UpdateToken serializes page updates with an update token
	// (update-privilege baseline of §3.1, per Mohan-Narang).
	UpdateToken
)

func (m UpdateMode) String() string {
	if m == UpdateToken {
		return "token"
	}
	return "merge"
}

// Config parameterizes a cluster.
type Config struct {
	// PageSize is the database page size in bytes.
	PageSize int
	// ServerPool and ClientPool are buffer capacities in pages.
	ServerPool int
	ClientPool int
	// Granularity, Logging and Update select the scheme (defaults are
	// the paper's).
	Granularity Granularity
	Logging     LoggingMode
	Update      UpdateMode
	// LockTimeout bounds lock waits.
	LockTimeout time.Duration
	// ClientLogCapacity bounds each private log in bytes (0 =
	// unbounded); §3.6 log space management engages when it fills.
	ClientLogCapacity uint64
	// Latency is the simulated one-way network latency applied by the
	// loopback transport.
	Latency time.Duration
	// FsyncLatency is the simulated fsync time of the memory-backed
	// server and client log devices (0 = instantaneous).  Group commit
	// coalesces concurrent forces onto one such sleep.
	FsyncLatency time.Duration
	// CheckpointEvery takes a fuzzy client checkpoint after that many
	// commits (0 disables automatic checkpoints).
	CheckpointEvery int
	// ServerDirtyLimit bounds the server pool's dirty page count: when
	// a page receipt pushes the count past the limit, the server forces
	// the least-recently-used dirty page (replacement record + in-place
	// write) like a background disk writer would.  0 disables the limit
	// (pages are forced only on pool pressure or explicit §3.6
	// requests).
	ServerDirtyLimit int
	// Spans, when non-nil, enables per-transaction causal tracing:
	// clients open a span tree per transaction, propagate the trace
	// context on their RPCs, and the server stages its side of the work
	// (GLM waits, callback round trips) into the same store.  nil (the
	// default) disables tracing entirely.
	Spans *span.Store
	// Partitions is the fleet size: the page space is hash-partitioned
	// across this many server instances and clients route each
	// page-addressed RPC to the owning partition.  0 or 1 means the
	// classic single server.
	Partitions int
	// PartitionIndex is this server instance's partition id in a fleet
	// of Partitions servers; it scopes the instance to the pages it owns
	// and tags its waits-for exports.  Only meaningful on the server
	// side (cmd/clsrv -partition i/N; core.Cluster sets it internally).
	PartitionIndex int
}

// partitions resolves the fleet size (always >= 1).
func (c Config) partitions() int {
	if c.Partitions <= 1 {
		return 1
	}
	return c.Partitions
}

// SchemeName labels the configuration's locking/logging/update scheme
// for tables and metric tags.
func (c Config) SchemeName() string {
	switch {
	case c.Update == UpdateToken:
		return "token"
	case c.Granularity == GranPage:
		return "page-lock"
	case c.Logging == LogShipCommit:
		return "ship-log"
	case c.Logging == LogShipPages:
		return "ship-pages"
	default:
		return "paper"
	}
}

// DefaultConfig returns the paper's scheme with test-friendly sizes.
func DefaultConfig() Config {
	return Config{
		PageSize:    4096,
		ServerPool:  256,
		ClientPool:  64,
		Granularity: GranAdaptive,
		Logging:     LogLocal,
		Update:      UpdateMerge,
		LockTimeout: 10 * time.Second,
	}
}
