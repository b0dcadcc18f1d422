package index

import (
	"fmt"
	"hash/fnv"
	"io"

	"repro/internal/minhash"
	"repro/internal/prep"
)

// ShardOf maps an indexed function to its shard in an n-way fleet:
// FNV-1a over the (exe, name) identity, reduced mod n. A shard save
// (SaveOptions.Shard, tracy shard) keeps exactly the entries it maps to
// that shard. The identity — not the address or position — is hashed so
// that re-indexing, reordering, or appending to the corpus never
// migrates an existing function between shards. The coordinator does
// not route by it: a by-reference query is looked up on every replica.
// n <= 1 collapses to a single shard.
func ShardOf(exe, name string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	io.WriteString(h, exe)
	h.Write([]byte{0})
	io.WriteString(h, name)
	return int(h.Sum64() % uint64(n))
}

// SaveV3ShardLSH is Save of shard of an nShards-way split with the lsh
// sections under p.
//
// Deprecated: bench/ only; ROADMAP 1(b) ports it.
func (db *DB) SaveV3ShardLSH(w io.Writer, shard, nShards int, p minhash.Params) error {
	return db.Save(w, SaveOptions{Shard: shard, Shards: nShards, LSH: &p})
}

// ValidateFunction structurally validates a deserialized lifted
// function: the control-flow graph must exist, its entry block and
// every successor index must be in range, and no block may be nil —
// any of which would panic the first Decompose call (tracelet
// extraction indexes Blocks by successor) — and every instruction must
// pack whole (asm.Inst.Packable): a compare ignores what packing drops, and
// an index file would lose it. The fleet wire applies it to every query
// function a worker decodes off the network, before searching with it.
func ValidateFunction(fn *prep.Function) error {
	if fn == nil || fn.Graph == nil {
		return fmt.Errorf("missing lifted function")
	}
	gr := fn.Graph
	if gr.Entry < 0 || (len(gr.Blocks) > 0 && gr.Entry >= len(gr.Blocks)) {
		return fmt.Errorf("entry block %d of %d", gr.Entry, len(gr.Blocks))
	}
	for bi, b := range gr.Blocks {
		if b == nil {
			return fmt.Errorf("nil block %d", bi)
		}
		for _, s := range b.Succs {
			if s < 0 || s >= len(gr.Blocks) {
				return fmt.Errorf("block %d successor %d of %d", bi, s, len(gr.Blocks))
			}
		}
		for k := range b.Insts {
			if err := b.Insts[k].Packable(); err != nil {
				return fmt.Errorf("block %d: %w", bi, err)
			}
		}
	}
	return nil
}
