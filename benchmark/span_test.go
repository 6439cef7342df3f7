package main

import "testing"

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Request: 1, Start: 0, End: 100},              // root
		{ID: 2, Parent: 1, Request: 1, Start: 10, End: 40},   // child
		{ID: 3, Parent: 1, Request: 1, Start: 30, End: 60},   // overlaps child 2 by 10
		{ID: 4, Parent: 2, Request: 1, Start: 15, End: 25},   // grandchild, nested in 2
		{ID: 5, Parent: 1, Request: 1, Start: 90, End: 120},  // sticks out of the root by 20
		{ID: 6, Parent: 1, Request: 1, Start: 35, End: 38},   // wholly inside 2 ∪ 3
		{ID: 7, Request: 7, Start: 200, End: 230},            // another request, no children
		{ID: 8, Parent: 7, Request: 7, Start: 230, End: 230}, // empty child
	}
	want := map[uint32]int64{
		1: 100 - (50 + 10), // [10,60) and [90,100)
		2: 30 - 10,
		3: 30,
		4: 10,
		5: 30,
		6: 3,
		7: 30,
		8: 0,
	}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d: self %d, want %d", id, got[id], w)
		}
	}
}

func TestSelfTimesOfARequestSumToItsDuration(t *testing.T) {
	// Without overlap, the self times of a request's spans add up to the
	// root's duration: the identity the reconciliation row rests on.
	spans := []span{
		{ID: 1, Request: 1, Start: 0, End: 1000},
		{ID: 2, Parent: 1, Request: 1, Start: 5, End: 400},
		{ID: 3, Parent: 1, Request: 1, Start: 410, End: 800},
		{ID: 4, Parent: 3, Request: 1, Start: 500, End: 700},
	}
	var sum int64
	for _, v := range selfTimes(spans) {
		sum += v
	}
	if sum != 1000 {
		t.Fatalf("self times sum to %d, want the root's 1000", sum)
	}
}

func TestRecorderLinksParentAndRequest(t *testing.T) {
	var off *recorder
	if h := off.begin(spanRequest, -1); h != -1 {
		t.Fatalf("nil recorder returned handle %d", h)
	}
	off.end(-1) // must not panic

	r := newRecorder(3)
	root := r.begin(spanRequest, -1)
	kid := r.begin(spanExtractPhone, root)
	r.end(kid)
	r.end(root)
	if len(r.spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(r.spans))
	}
	rs, ks := r.spans[0], r.spans[1]
	if rs.Parent != 0 || rs.Request != rs.ID || ks.Parent != rs.ID || ks.Request != rs.ID {
		t.Fatalf("bad links: root %+v kid %+v", rs, ks)
	}
	if rs.ID>>24 != 3 {
		t.Fatalf("session not encoded in the id: %#x", rs.ID)
	}
	if ks.End < ks.Start || rs.End < ks.End {
		t.Fatalf("timestamps out of order: root %+v kid %+v", rs, ks)
	}
}
