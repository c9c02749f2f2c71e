package model

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestCanonicalPermutationInvariant(t *testing.T) {
	in := &Instance{
		Capacity: []int64{8, 4, 16, 4},
		Tasks: []Task{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
			{ID: 1, Start: 1, End: 4, Demand: 1, Weight: 5},
			{ID: 2, Start: 0, End: 2, Demand: 2, Weight: 3}, // same shape as 0, distinct ID
			{ID: 3, Start: 2, End: 3, Demand: 7, Weight: 1},
		},
	}
	want := in.CanonicalBytes()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		perm := in.Clone()
		rng.Shuffle(len(perm.Tasks), func(i, j int) {
			perm.Tasks[i], perm.Tasks[j] = perm.Tasks[j], perm.Tasks[i]
		})
		if !bytes.Equal(perm.CanonicalBytes(), want) {
			t.Fatalf("trial %d: permuted instance encodes differently", trial)
		}
		canon := perm.Canonicalize()
		if !bytes.Equal(canon.CanonicalBytes(), want) {
			t.Fatalf("trial %d: canonicalized instance encodes differently", trial)
		}
		for i := 1; i < len(canon.Tasks); i++ {
			if compareCanonical(canon.Tasks[i], canon.Tasks[i-1]) < 0 {
				t.Fatalf("trial %d: canonical order violated at %d", trial, i)
			}
		}
	}
}

func TestCanonicalDistinguishesInstances(t *testing.T) {
	base := &Instance{
		Capacity: []int64{8, 4},
		Tasks:    []Task{{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3}},
	}
	mutants := []*Instance{
		{Capacity: []int64{8, 5}, Tasks: base.Tasks},                                              // capacity value
		{Capacity: []int64{8, 4, 4}, Tasks: base.Tasks},                                           // path length
		{Capacity: []int64{8, 4}, Tasks: []Task{{ID: 1, Start: 0, End: 2, Demand: 2, Weight: 3}}}, // ID
		{Capacity: []int64{8, 4}, Tasks: []Task{{ID: 0, Start: 0, End: 1, Demand: 2, Weight: 3}}}, // interval
		{Capacity: []int64{8, 4}, Tasks: []Task{{ID: 0, Start: 0, End: 2, Demand: 3, Weight: 3}}}, // demand
		{Capacity: []int64{8, 4}, Tasks: []Task{{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 4}}}, // weight
		{Capacity: []int64{8, 4}}, // no tasks
	}
	want := base.CanonicalBytes()
	for i, m := range mutants {
		if bytes.Equal(m.CanonicalBytes(), want) {
			t.Errorf("mutant %d encodes identically to the base instance", i)
		}
	}
}

func TestCanonicalRing(t *testing.T) {
	r := &RingInstance{
		Capacity: []int64{8, 4, 6},
		Tasks: []RingTask{
			{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
			{ID: 1, Start: 2, End: 1, Demand: 1, Weight: 5},
		},
	}
	want := r.CanonicalBytes()
	perm := &RingInstance{Capacity: r.Capacity, Tasks: []RingTask{r.Tasks[1], r.Tasks[0]}}
	if !bytes.Equal(perm.CanonicalBytes(), want) {
		t.Fatal("permuted ring instance encodes differently")
	}
	if !bytes.Equal(perm.Canonicalize().CanonicalBytes(), want) {
		t.Fatal("canonicalized ring instance encodes differently")
	}
	// A path with the same numbers must not collide with the ring.
	p := &Instance{Capacity: r.Capacity, Tasks: []Task{
		{ID: 0, Start: 0, End: 2, Demand: 2, Weight: 3},
		{ID: 1, Start: 2, End: 1, Demand: 1, Weight: 5},
	}}
	if bytes.Equal(p.CanonicalBytes(), want) {
		t.Fatal("path and ring canonical encodings collide")
	}
}
