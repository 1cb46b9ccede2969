package main

import (
	"path/filepath"
	"runtime"
	"testing"
)

func TestMisclassifiedFromTierCounters(t *testing.T) {
	sent := [numClasses]int{classTier0: 50, classDisk: 20, classMiss: 10, classRemote: 5}
	exact := tierDeltas{
		hotLRUHits: 50, hotLRUMisses: 10,
		tailDiskHits:    20,
		remoteLRUMisses: 5, remoteOK: 5,
	}
	if n := misclassified(sent, exact); n != 0 {
		t.Fatalf("counters matching every class: %d misclassified", n)
	}
	for name, tc := range map[string]struct {
		mutate func(*tierDeltas)
		want   int
	}{
		// A disk request the tail heap tier still held: a heap hit, one
		// disk hit short.
		"disk answered from heap": {func(d *tierDeltas) { d.tailLRUHits++; d.tailDiskHits-- }, 2},
		// A tier-0 key evicted from the hot heap tier.
		"tier-0 answered from disk": {func(d *tierDeltas) { d.hotLRUHits-- }, 1},
		// A local miss that found its key cached after all.
		"miss answered from cache": {func(d *tierDeltas) { d.hotLRUMisses-- }, 1},
		// A remote miss computed locally after a node failure.
		"remote fell back": {func(d *tierDeltas) { d.remoteOK--; d.remoteFallbacks++ }, 2},
	} {
		d := exact
		tc.mutate(&d)
		if n := misclassified(sent, d); n != tc.want {
			t.Errorf("%s: %d misclassified, want %d", name, n, tc.want)
		}
	}
}

// A small topology served a planned mix must answer every request with
// a 200 of the class it was meant to be, as both the X-Cache headers and
// the front ends' tier counters tell it, with bodies identical across
// tiers and topologies.
func TestServeMixClassesVerifiedEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers")
	}
	g := newSpecGen(3)
	env, err := startServe(filepath.Join(t.TempDir(), "serve"), g)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	reqs := planMix(g, 120, env.hot)
	clients := newClients(runtime.NumCPU())
	defer closeClients(clients)
	before := env.snapshots()
	res, do := env.fire(clients, reqs)
	closedLoop(len(clients), len(reqs), do)
	var tl tally
	tl.add(reqs, res, env.ref)
	if f := tl.failures(); f != 0 {
		t.Fatalf("%d failed answers: %+v", f, tl)
	}
	if n := misclassified(tl.sent, deltasBetween(env.snapshots(), before)); n != 0 {
		t.Fatalf("%d requests not accounted for by the tier counters (sent %v)", n, tl.sent)
	}
	for c, n := range tl.sent {
		if n == 0 {
			t.Fatalf("class %s was never sent", classNames[c])
		}
	}
	var local, remote []request
	for _, q := range reqs {
		switch q.class {
		case classMiss:
			local = append(local, q)
		case classRemote:
			remote = append(remote, q)
		}
	}
	if n, bad := env.crossCheck(&tl, local, remote); n == 0 || bad != 0 {
		t.Fatalf("cross-topology check: %d of %d bodies differ", bad, n)
	}
}
