package store

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func testLeaves(n int) []Hash {
	leaves := make([]Hash, n)
	for i := range leaves {
		leaves[i] = sha256.Sum256([]byte(fmt.Sprintf("leaf-%d", i)))
	}
	return leaves
}

func TestMerkleRootEmptyAndSingle(t *testing.T) {
	if got := (MerkleRoot(nil)); got != (Hash{}) {
		t.Fatalf("empty root = %s, want zero", got)
	}
	leaves := testLeaves(1)
	if got := MerkleRoot(leaves); got != leaves[0] {
		t.Fatalf("single-leaf root = %s, want the leaf itself", got)
	}
}

func TestMerkleRootDeterministicAndOrderSensitive(t *testing.T) {
	leaves := testLeaves(7)
	a, b := MerkleRoot(leaves), MerkleRoot(leaves)
	if a != b {
		t.Fatal("root is not deterministic")
	}
	swapped := append([]Hash(nil), leaves...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if MerkleRoot(swapped) == a {
		t.Fatal("root ignores leaf order")
	}
	// MerkleRoot must not mutate its input (File reuses leaf slices for
	// index entries after computing the root).
	fresh := testLeaves(7)
	for i := range leaves {
		if leaves[i] != fresh[i] {
			t.Fatalf("MerkleRoot mutated its input at leaf %d", i)
		}
	}
}

func TestMerkleOddPromotionDistinctFromDuplication(t *testing.T) {
	// With odd-node promotion, a 3-leaf tree must differ from the 4-leaf
	// tree that duplicates the last leaf (the classic second-preimage
	// weakness of the duplicate-last variant).
	leaves := testLeaves(3)
	dup := append(append([]Hash(nil), leaves...), leaves[2])
	if MerkleRoot(leaves) == MerkleRoot(dup) {
		t.Fatal("3-leaf root equals duplicated 4-leaf root")
	}
}

func TestChainHead(t *testing.T) {
	var zero Hash
	r1 := sha256.Sum256([]byte("root1"))
	r2 := sha256.Sum256([]byte("root2"))
	h1 := ChainHead(zero, r1)
	h2 := ChainHead(h1, r2)
	if h1 == zero || h2 == zero || h1 == h2 {
		t.Fatal("chain heads must be distinct and nonzero")
	}
	// Order matters: swapping batch order must change the final head.
	alt := ChainHead(ChainHead(zero, r2), r1)
	if alt == h2 {
		t.Fatal("chain head ignores batch order")
	}
}
