package cluster

import (
	"context"
	"fmt"
	"sync"

	"hido/internal/core"
	"hido/internal/cube"
)

// Source is a core.CountSource whose cube counts come from the
// shards: every count is the sum of per-shard counts for the same
// cube under the same global cuts, which is exact because the shards
// partition the rows. The evolutionary and brute-force searches are
// pure functions of these counts, so running them over a Source
// yields bit-identical results to a single-node run over the
// concatenated data.
//
// Counts are memoized (searches revisit cubes constantly; an RPC per
// revisit would be pathological), and Source is a core.BatchSource:
// the misses of each batch travel in one count RPC per shard. A
// search generation — of every restart at once, since they advance in
// lockstep — sends one batch per crossover round plus one for its
// evaluation, at most k+1 round trips at the advisor's k ≤ 6, and
// each §2.3 postprocessing pass sends one cover RPC per shard.
//
// core.CountSource has no error returns: a search cannot surface an
// RPC failure mid-generation. Source therefore latches the first
// failure and answers 0 from then on; Fit checks Err() after the
// search and discards the result if anything failed. Wrong-but-known
// beats a panic in a worker goroutine.
type Source struct {
	co     *Coordinator
	ctx    context.Context
	gridID string
	n, d   int
	phi    int

	mu     sync.Mutex
	memo   map[string]int
	hits   int
	misses int
	fail   error
}

func (co *Coordinator) newSource(ctx context.Context, gridID string, n, d, phi int) *Source {
	return &Source{co: co, ctx: ctx, gridID: gridID, n: n, d: d, phi: phi,
		memo: map[string]int{}}
}

func (s *Source) N() int   { return s.n }
func (s *Source) D() int   { return s.d }
func (s *Source) Phi() int { return s.phi }

// Err returns the first RPC failure, if any. A search result is only
// trustworthy when Err() is nil.
func (s *Source) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fail
}

// Stats reports memo effectiveness: (hits, misses, distinct cubes).
func (s *Source) Stats() (hits, misses, size int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses, len(s.memo)
}

func (s *Source) latch(err error) {
	s.mu.Lock()
	if s.fail == nil {
		s.fail = err
	}
	s.mu.Unlock()
}

// CountKey returns the global count of rows inside c.
func (s *Source) CountKey(c cube.Cube, key string) int {
	return s.CountBatch([]cube.Cube{c}, []string{key}, 0)[0]
}

// lookup answers a count from the memo. The key may alias a reused
// buffer: a hit allocates nothing.
func (s *Source) lookup(key []byte) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.memo[string(key)]
	if ok {
		s.hits++
	}
	return n, ok
}

// CountBatch resolves a batch of cubes: memo hits are answered
// locally, the distinct misses travel in a single count RPC per
// shard, and the sums land back in the memo.
func (s *Source) CountBatch(cs []cube.Cube, keys []string, workers int) []int {
	out := make([]int, len(cs))
	var miss []int             // positions of the distinct misses
	var pending map[string]int // miss key → its index in miss
	s.mu.Lock()
	for i, k := range keys {
		if n, ok := s.memo[k]; ok {
			out[i] = n
			s.hits++
		} else if _, dup := pending[k]; dup {
			s.hits++
		} else {
			if pending == nil {
				pending = map[string]int{}
			}
			pending[k] = len(miss)
			miss = append(miss, i)
		}
	}
	s.mu.Unlock()
	if len(miss) == 0 {
		return out
	}
	missCubes := make([]cube.Cube, len(miss))
	for m, i := range miss {
		missCubes[m] = cs[i]
	}
	counts, err := s.co.remoteCounts(s.ctx, s.gridID, missCubes)
	if err != nil {
		s.latch(err)
		counts = make([]int, len(miss))
	}
	s.mu.Lock()
	for m, i := range miss {
		s.memo[keys[i]] = counts[m]
		s.misses++
	}
	s.mu.Unlock()
	for i, k := range keys {
		if m, ok := pending[k]; ok {
			out[i] = counts[m]
		}
	}
	return out
}

// ExtendBatch answers one crossover round (core.BatchSource): each
// extension's key is built in its partial's buffer, memo hits answer
// without allocating, and only the misses get a cube and a key string
// of their own before travelling in one CountBatch.
func (s *Source) ExtendBatch(xs []core.Extension) []int {
	out := make([]int, len(xs))
	var at []int
	var cs []cube.Cube
	var keys []string
	for i, x := range xs {
		p := x.P.(*remotePartial)
		key := p.extendedKey(x.J, x.R)
		if n, ok := s.lookup(key); ok {
			out[i] = n
			continue
		}
		at = append(at, i)
		cs = append(cs, p.c.With(x.J, x.R))
		keys = append(keys, string(key))
	}
	if len(cs) > 0 {
		for m, n := range s.CountBatch(cs, keys, 0) {
			out[at[m]] = n
		}
	}
	return out
}

// Cover returns the global row indices inside c.
func (s *Source) Cover(c cube.Cube) []int {
	return s.CoverBatch([]cube.Cube{c})[0]
}

// CoverBatch returns the global row indices inside each cube, in one
// cover RPC per shard: each shard's local covers shifted by its
// offset, concatenated in peer order. Local covers are ascending and
// shard ranges are disjoint and ordered, so each concatenation is the
// ascending global cover — the same order a single-node index
// produces.
func (s *Source) CoverBatch(cs []cube.Cube) [][]int {
	out := make([][]int, len(cs))
	shards, _, _, err := s.co.topology(s.ctx)
	if err != nil {
		s.latch(err)
		return out
	}
	req := coverReq{GridID: s.gridID, D: s.d, Cubes: cs}
	frame := req.encode()
	perShard := make([][][]int, len(shards))
	errs := s.co.eachPeer(func(i int, peer string) error {
		payload, err := s.co.client.Call(s.ctx, peer, "cover", frame, msgCoverResp)
		if err != nil {
			return err
		}
		var resp coverResp
		if err := resp.decode(payload); err != nil {
			return err
		}
		if len(resp.Covers) != len(cs) {
			return fmt.Errorf("cluster: peer %s covered %d of %d cubes", peer, len(resp.Covers), len(cs))
		}
		perShard[i] = resp.Covers
		return nil
	})
	for i, err := range errs {
		if err != nil {
			s.latch(fmt.Errorf("cover from %s: %w", shards[i].peer, err))
			return make([][]int, len(cs))
		}
	}
	for c := range cs {
		for i, covers := range perShard {
			for _, idx := range covers[c] {
				out[c] = append(out[c], shards[i].offset+idx)
			}
		}
	}
	return out
}

// NewPartial returns a Partial over the distributed counts. Every
// search constrains each dimension at most once between Resets, so a
// partial is faithfully represented by the cube of its constraints —
// each Count/Extend resolves through the memo, hitting the wire only
// for cubes this fit has never counted.
func (s *Source) NewPartial() core.Partial {
	return &remotePartial{s: s, c: cube.New(s.d)}
}

// remotePartial accumulates constraints in a cube it owns, constrained
// and copied in place, and builds lookup keys in a reused buffer.
type remotePartial struct {
	s   *Source
	c   cube.Cube
	key []byte
}

func (p *remotePartial) Reset() { clear(p.c) }

func (p *remotePartial) Constrain(j int, r uint16) { p.c[j] = r }

func (p *remotePartial) ConstrainFrom(parent core.Partial, j int, r uint16) int {
	copy(p.c, parent.(*remotePartial).c)
	p.c[j] = r
	return p.Count()
}

func (p *remotePartial) Count() int {
	if p.c.K() == 0 {
		return p.s.n
	}
	p.key = p.c.AppendKey(p.key[:0])
	if n, ok := p.s.lookup(p.key); ok {
		return n
	}
	return p.s.CountKey(p.c, string(p.key))
}

func (p *remotePartial) Extend(j int, r uint16) int {
	key := p.extendedKey(j, r)
	if n, ok := p.s.lookup(key); ok {
		return n
	}
	return p.s.CountKey(p.c.With(j, r), string(key))
}

// extendedKey builds the key of the partial's cube with range r on
// dimension j into the partial's buffer.
func (p *remotePartial) extendedKey(j int, r uint16) []byte {
	old := p.c[j]
	p.c[j] = r
	p.key = p.c.AppendKey(p.key[:0])
	p.c[j] = old
	return p.key
}

func (p *remotePartial) CopyFrom(other core.Partial) {
	copy(p.c, other.(*remotePartial).c)
}

// remoteCounts sums one batch of cube counts across every shard. All
// shards must answer — a partial sum is not a lower-confidence count,
// it is a wrong count.
func (co *Coordinator) remoteCounts(ctx context.Context, gridID string, cs []cube.Cube) ([]int, error) {
	shards, _, names, err := co.topology(ctx)
	if err != nil {
		return nil, err
	}
	req := countReq{GridID: gridID, D: len(names), Cubes: cs}
	frame := req.encode()
	perShard := make([][]int, len(shards))
	errs := co.eachPeer(func(i int, peer string) error {
		payload, err := co.client.Call(ctx, peer, "count", frame, msgCountResp)
		if err != nil {
			return err
		}
		var resp countResp
		if err := resp.decode(payload); err != nil {
			return err
		}
		if len(resp.Counts) != len(cs) {
			return fmt.Errorf("cluster: peer %s counted %d of %d cubes", peer, len(resp.Counts), len(cs))
		}
		perShard[i] = resp.Counts
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: counting on %s: %w", shards[i].peer, err)
		}
	}
	totals := make([]int, len(cs))
	for _, counts := range perShard {
		for j, n := range counts {
			totals[j] += n
		}
	}
	return totals, nil
}
