package main

import "testing"

// TestAttributeLongSharedSpan checks that shared activity which began long
// before a short shard span still counts where it overlaps that span: a
// request arriving late in a snapshot write waits only for its remainder.
func TestAttributeLongSharedSpan(t *testing.T) {
	spans := []span{
		{layer: layerClient, node: -1, req: 1, start: 0, end: 100},
		{layer: layerRouter, node: -1, req: 1, start: 5, end: 95},
		{layer: layerHop, node: -1, req: 1, start: 10, end: 90},
		{layer: layerShard, node: 0, req: 1, start: 20, end: 80},
		{layer: layerSnapshot, node: 0, start: -1000, end: 50},
		{layer: layerFsync, node: 0, start: 60, end: 62},
		{layer: layerFsync, node: 2, start: 20, end: 80}, // another group's node
	}
	b := attribute(spans)
	want := [numLayers]int64{
		layerClient:   10,
		layerRouter:   10,
		layerHop:      20,
		layerShard:    28,
		layerSnapshot: 30,
		layerFsync:    2,
	}
	if b.exclusive != want {
		t.Fatalf("exclusive = %v, want %v", b.exclusive, want)
	}
	if b.ops != 1 || b.hops != 1 || b.fsyncs != 2 {
		t.Fatalf("ops=%d hops=%d fsyncs=%d, want 1, 1, 2", b.ops, b.hops, b.fsyncs)
	}
}
