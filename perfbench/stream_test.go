package main

import (
	"reflect"
	"testing"
)

func TestStreamsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := streams(w, 11, 2), streams(w, 11, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 11 gave two different streams", w.name)
		}
		if w.name == "scan-100mb" {
			continue // one fixed statement: nothing for the seed to choose
		}
		if reflect.DeepEqual(a, streams(w, 12, 2)) {
			t.Errorf("%s: seeds 11 and 12 gave the same stream", w.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for _, w := range workloads {
		st := streams(w, 3, 4)
		if len(st) != clients {
			t.Fatalf("%s: %d client streams, want %d", w.name, len(st), clients)
		}
		for c, s := range st {
			if len(s) == 0 {
				t.Errorf("%s: client %d has an empty stream", w.name, c)
			}
			for _, o := range s {
				if o.kind == opUpdate && owner(o.ref) != c {
					t.Errorf("%s: client %d updates key %d owned by client %d", w.name, c, o.ref, owner(o.ref))
				}
			}
		}
	}
}
