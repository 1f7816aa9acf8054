package query

import (
	"strings"
	"sync"

	"repro/internal/dataframe"
)

// SpaceCache builds template search spaces over one relevant table and
// caches whole spaces, keyed on the template's exact layout. Query template
// identification walks an attribute-subset tree where every template
// reappears across layers and generation, so each layout is assembled once.
// The per-attribute value domains beneath come from the table's scan state
// (see tableCore.predDim), shared with BuildSpace and every other cache
// over the table. A cached space keeps the domains of the table epoch it was
// built at. Safe for concurrent use.
type SpaceCache struct {
	r    *dataframe.Table
	opts SpaceOptions

	mu     sync.Mutex
	spaces map[string]*Space
}

// NewSpaceCache builds a cache over one relevant table with fixed
// discretisation options.
func NewSpaceCache(r *dataframe.Table, opts SpaceOptions) *SpaceCache {
	return &SpaceCache{r: r, opts: opts.normalized(), spaces: map[string]*Space{}}
}

// Space returns the search space of a template's query pool, equivalent to
// BuildSpace(r, t, opts). Spaces build outside the lock; when two callers
// race to build the same one, the first to store it wins and both return the
// stored value, so every caller sees one instance per key.
func (c *SpaceCache) Space(t Template) (*Space, error) {
	key := templateKey(t)
	c.mu.Lock()
	if s, ok := c.spaces[key]; ok {
		c.mu.Unlock()
		return s, nil
	}
	c.mu.Unlock()

	s, err := BuildSpace(c.r, t, c.opts)
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

// spaceDimKey identifies one predicate value domain of a table: the
// attribute and the normalised options that shape it.
type spaceDimKey struct {
	attr string
	opts SpaceOptions
}

// spaceDimEntry is one cached predicate value domain, stamped with the table
// epoch it covers. An entry behind the table's epoch is rebuilt on its next
// use; advanceCore never touches it, so appends pay nothing for domains.
type spaceDimEntry struct {
	mu    sync.Mutex
	built bool
	epoch uint64
	pd    predDim
}

// predDim returns attr's value domain under opts (normalised), computing it
// on its first use at the table's current epoch. Caller holds the fence in
// read mode, which holds the table — and so its epoch — still; the entry's
// lock makes concurrent callers wait for one build instead of racing two.
func (c *tableCore) predDim(attr string, opts SpaceOptions) (predDim, error) {
	k := spaceDimKey{attr: attr, opts: opts}
	c.mu.Lock()
	if c.spaceDims == nil {
		c.spaceDims = map[spaceDimKey]*spaceDimEntry{}
	}
	ent, ok := c.spaceDims[k]
	if !ok {
		ent = &spaceDimEntry{}
		c.spaceDims[k] = ent
	}
	c.mu.Unlock()

	ent.mu.Lock()
	defer ent.mu.Unlock()
	if cur := c.t.Epoch(); !ent.built || ent.epoch != cur {
		pd, err := buildPredDim(c.t, attr, opts)
		if err != nil {
			return predDim{}, err
		}
		ent.pd, ent.epoch, ent.built = pd, cur, true
	}
	return ent.pd, nil
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
