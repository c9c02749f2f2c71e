package store

import "crypto/sha256"

// The Merkle tree over a batch's record hashes is the classic binary
// construction: leaves are record hashes (already domain-separated, see
// record.go), interior nodes hash their two children under a distinct
// node domain, and an odd node at any level is promoted unchanged (the
// Bitcoin-style duplicate-last variant would let two different batches
// share a root). Batch roots are then chained:
//
//	head_i = SHA-256(chainDomain ‖ head_{i-1} ‖ root_i)
//
// with head_0 = the zero hash, so the latest head commits to every record
// ever flushed, in order.

var (
	nodeDomain  = []byte("sapstore/node\x00")
	chainDomain = []byte("sapstore/chain\x00")
)

func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write(nodeDomain)
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// MerkleRoot computes the root of the given leaf hashes. The root of an
// empty batch is the zero hash (File never flushes one).
func MerkleRoot(leaves []Hash) Hash {
	if len(leaves) == 0 {
		return Hash{}
	}
	level := append([]Hash(nil), leaves...)
	for len(level) > 1 {
		next := level[: 0 : len(level)/2+1]
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, nodeHash(level[i], level[i+1]))
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0]
}

// ChainHead advances the batch chain: the new head commits to the
// previous head and this batch's Merkle root.
func ChainHead(prev Hash, root Hash) Hash {
	h := sha256.New()
	h.Write(chainDomain)
	h.Write(prev[:])
	h.Write(root[:])
	var out Hash
	h.Sum(out[:0])
	return out
}
