package query

import (
	"strings"
	"sync"

	"repro/internal/dataframe"
)

// SpaceCache builds template search spaces over one relevant table, caching
// the expensive per-attribute work (distinct-value scans, quantile grids)
// across templates. Query template identification walks an attribute-subset
// tree where every attribute reappears in many combinations, so without the
// cache the same column is scanned once per tree node; with it, once per
// table. Whole spaces are cached too, keyed on the template's exact layout.
// Safe for concurrent use.
type SpaceCache struct {
	r    *dataframe.Table
	opts SpaceOptions

	mu     sync.Mutex
	dims   map[string]predDim
	spaces map[string]*Space
}

// NewSpaceCache builds a cache over one relevant table with fixed
// discretisation options.
func NewSpaceCache(r *dataframe.Table, opts SpaceOptions) *SpaceCache {
	return &SpaceCache{
		r:      r,
		opts:   opts.normalized(),
		dims:   map[string]predDim{},
		spaces: map[string]*Space{},
	}
}

// Space returns the search space of a template's query pool, equivalent to
// BuildSpace(r, t, opts) but reusing cached per-attribute domains. Spaces and
// domains build outside the lock; when two callers race to build the same
// one, the first to store it wins and both return the stored value, so every
// caller sees one instance per key.
func (c *SpaceCache) Space(t Template) (*Space, error) {
	key := templateKey(t)
	c.mu.Lock()
	if s, ok := c.spaces[key]; ok {
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()

	s, err := assembleSpace(c.r, t, c.predDim)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if stored, ok := c.spaces[key]; ok {
		return stored, nil
	}
	c.spaces[key] = s
	return s, nil
}

// predDim returns the cached value domain of one predicate attribute.
func (c *SpaceCache) predDim(attr string) (predDim, error) {
	c.mu.Lock()
	pd, ok := c.dims[attr]
	c.mu.Unlock()
	if ok {
		return pd, nil
	}
	pd, err := buildPredDim(c.r, attr, c.opts)
	if err != nil {
		return predDim{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if stored, ok := c.dims[attr]; ok {
		return stored, nil
	}
	c.dims[attr] = pd
	return pd, nil
}

// templateKey is an exact identity for a template's space layout: every
// component list in order (order fixes the dimension layout).
func templateKey(t Template) string {
	var sb strings.Builder
	for _, f := range t.Funcs {
		sb.WriteString(f.String())
		sb.WriteByte('\x1e')
	}
	sb.WriteByte('\x1f')
	sb.WriteString(strings.Join(t.AggAttrs, "\x1e"))
	sb.WriteByte('\x1f')
	sb.WriteString(strings.Join(t.PredAttrs, "\x1e"))
	sb.WriteByte('\x1f')
	sb.WriteString(strings.Join(t.Keys, "\x1e"))
	return sb.String()
}
