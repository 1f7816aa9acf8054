package query

import (
	"strings"
	"sync"

	"repro/internal/dataframe"
)

// The train-side join index — a GroupIndex over the training table's key
// columns — depends only on (training table, key columns), not on the
// relevant table an executor is bound to. Before this cache every executor
// rebuilt it privately, so the k per-source executors of one training table
// (the MultiFeaturePlan shape, cmd/feataug's :split= scenarios) paid k
// identical full-table grouping passes. JoinCache hoists that index to a
// shareable, process-level cache keyed by (table identity fingerprint,
// key-set); the per-executor join entry keeps only the rToD mapping, which
// genuinely depends on the relevant table.

// trainKey identifies one training-table group index.
type trainKey struct {
	fp   uint64 // dataframe.Table identity fingerprint
	keys string // "\x1f"-joined key columns, order-preserving
}

// trainEntry is one cached train-side group index; idx and err are read-only
// after the once completes.
type trainEntry struct {
	once sync.Once
	idx  *dataframe.GroupIndex
	err  error
}

// maxTrainEntries bounds the cache; like the executor's bounded caches, the
// whole map is dropped on overflow (in-flight holders keep their references).
const maxTrainEntries = 128

// JoinCache is a bounded cache of train-side join indexes, shareable across
// executors. All methods are safe for concurrent use. NewExecutor defaults to
// the process-level instance (ProcessJoinCache); multi-table transformers
// thread one explicit cache through every per-source executor.
type JoinCache struct {
	mu      sync.Mutex
	entries map[trainKey]*trainEntry
}

// NewJoinCache builds an empty cache.
func NewJoinCache() *JoinCache {
	return &JoinCache{entries: map[trainKey]*trainEntry{}}
}

// processJoins is the process-level default: executors constructed without
// WithJoinCache share train-side indexes across the whole process, so any two
// executors joining features onto the same training table instance build its
// group index once between them (a FitMulti run's per-source evaluators all
// hit it for the shared base training table). The retention trade-off: an
// entry outlives the table it indexes until a whole-map drop, so the cache
// can pin up to maxTrainEntries dead indexes. Executors fed an unbounded
// stream of *distinct* training tables (every batch a fresh table) should
// opt out with WithJoinCache(NewJoinCache()) scoped to their own lifetime.
var processJoins = NewJoinCache()

// ProcessJoinCache returns the process-level cache NewExecutor defaults to.
func ProcessJoinCache() *JoinCache { return processJoins }

// trainIndex returns the cached group index of d over keys, building it on
// first use. hit reports whether the entry already existed and evicted whether
// this lookup overflowed the bound (the calling executor attributes both to
// its own stats, so ExecutorStats stays the one observability surface).
func (c *JoinCache) trainIndex(d *dataframe.Table, keys []string) (idx *dataframe.GroupIndex, hit, evicted bool, err error) {
	k := trainKey{fp: d.Fingerprint(), keys: strings.Join(keys, "\x1f")}
	c.mu.Lock()
	ent, ok := c.entries[k]
	if !ok {
		if len(c.entries) >= maxTrainEntries {
			c.entries = make(map[trainKey]*trainEntry, maxTrainEntries/4)
			evicted = true
		}
		ent = &trainEntry{}
		c.entries[k] = ent
	}
	c.mu.Unlock()
	ent.once.Do(func() {
		ent.idx, ent.err = d.BuildGroupIndex(keys...)
	})
	return ent.idx, ok, evicted, ent.err
}

// Len returns the number of cached train-side indexes (for tests).
func (c *JoinCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
