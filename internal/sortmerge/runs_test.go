package sortmerge

import (
	"reflect"
	"testing"

	"repro/internal/tuple"
)

// mergeJoinPairs is the merge join as it was before MergeJoinRuns: the
// duplicate-run rectangle expanded in the loop itself, r outer and s
// inner. MergeJoin must emit exactly this sequence.
func mergeJoinPairs(r, s []tuple.Tuple, emit JoinEmit) {
	i, j := 0, 0
	for i < len(r) && j < len(s) {
		kr, ks := keyRank(r[i].Key), keyRank(s[j].Key)
		switch {
		case kr < ks:
			i++
		case kr > ks:
			j++
		default:
			i2, j2 := i, j
			for i2 < len(r) && r[i2].Key == r[i].Key {
				i2++
			}
			for j2 < len(s) && s[j2].Key == s[j].Key {
				j2++
			}
			for a := i; a < i2; a++ {
				for b := j; b < j2; b++ {
					emit(r[a], s[b])
				}
			}
			i, j = i2, j2
		}
	}
}

// checkMergeJoinRuns sorts r and s, numbers each tuple by its sorted
// position, and checks MergeJoinRuns and MergeJoin against brute force
// and against mergeJoinPairs.
func checkMergeJoinRuns(t *testing.T, r, s tuple.Relation) {
	t.Helper()
	SortByKey(r, true, nil, 0)
	SortByKey(s, false, nil, 0)
	for i := range r {
		r[i].Payload = int32(i)
	}
	for j := range s {
		s[j].Payload = int32(j)
	}

	// Every (r, s) pair with equal keys lies in exactly one run
	// rectangle, and no other pair lies in any.
	cover := make([]int, len(r)*len(s))
	var area int64
	lastKey := int64(-1)
	n := MergeJoinRuns(r, s, func(rs, ss []tuple.Tuple) {
		if len(rs) == 0 || len(ss) == 0 {
			t.Fatalf("empty run rectangle %d×%d", len(rs), len(ss))
		}
		if k := int64(keyRank(rs[0].Key)); k <= lastKey {
			t.Fatalf("run keys not ascending: %d after %d", k, lastKey)
		} else {
			lastKey = k
		}
		for _, a := range rs {
			for _, b := range ss {
				cover[int(a.Payload)*len(s)+int(b.Payload)]++
			}
		}
		area += int64(len(rs) * len(ss))
	}, nil, 0, 0)
	var want int64
	for i := range r {
		for j := range s {
			match := r[i].Key == s[j].Key
			if match {
				want++
			}
			if c := cover[i*len(s)+j]; (match && c != 1) || (!match && c != 0) {
				t.Fatalf("pair (%d, %d), keys %d/%d, covered %d times", i, j, r[i].Key, s[j].Key, c)
			}
		}
	}
	if n != want || area != want {
		t.Fatalf("MergeJoinRuns counted %d, rectangles cover %d, brute force %d", n, area, want)
	}
	if c := MergeJoinRuns(r, s, nil, nil, 0, 0); c != want {
		t.Fatalf("count-only MergeJoinRuns = %d, want %d", c, want)
	}

	type pair struct{ r, s int32 }
	var got, ref []pair
	if c := MergeJoin(r, s, func(a, b tuple.Tuple) { got = append(got, pair{a.Payload, b.Payload}) }, nil, 0, 0); c != want {
		t.Fatalf("MergeJoin = %d, want %d", c, want)
	}
	mergeJoinPairs(r, s, func(a, b tuple.Tuple) { ref = append(ref, pair{a.Payload, b.Payload}) })
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("MergeJoin emit order differs from the expanded-loop merge join")
	}
}

func TestMergeJoinRunsDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		r, s tuple.Relation
	}{
		{"both empty", nil, nil},
		{"r empty", nil, tuple.Relation{{Key: 1}}},
		{"s empty", tuple.Relation{{Key: 1}}, nil},
		{"one key", randomRel(50, 1, 1), randomRel(70, 1, 2)},
		{"disjoint", tuple.Relation{{Key: 1}, {Key: 3}}, tuple.Relation{{Key: 2}, {Key: 4}}},
		{"extreme keys", tuple.Relation{{Key: -1 << 31}, {Key: 1<<31 - 1}, {Key: 0}},
			tuple.Relation{{Key: 1<<31 - 1}, {Key: -1 << 31}, {Key: -1 << 31}}},
		{"low duplication", randomRel(200, 400, 3), randomRel(300, 400, 4)},
		{"high duplication", randomRel(300, 4, 5), randomRel(200, 4, 6)},
	} {
		t.Run(tc.name, func(t *testing.T) { checkMergeJoinRuns(t, tc.r, tc.s) })
	}
	for seed := uint64(10); seed < 40; seed++ {
		checkMergeJoinRuns(t, randomRel(int(seed%97), int32(seed%13)+1, seed), randomRel(int(seed*7%89), int32(seed%13)+1, seed+100))
	}
}

// FuzzMergeJoinRuns decodes two relations from the input (one byte per
// key, the first byte splitting R from S) and runs the differential
// check on them.
func FuzzMergeJoinRuns(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 1, 2, 2, 3})
	f.Add([]byte{0, 5, 5, 5})
	f.Add([]byte{200, 0, 255, 128, 127, 0, 0, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 513 {
			data = data[:513]
		}
		split := 1 + int(data[0])%len(data)
		rel := func(b []byte) tuple.Relation {
			out := make(tuple.Relation, len(b))
			for i, k := range b {
				// Signed keys spanning the int32 range exercise
				// keyRank's order map.
				out[i] = tuple.Tuple{TS: int64(i), Key: int32(int8(k)) << 24}
			}
			return out
		}
		checkMergeJoinRuns(t, rel(data[1:split]), rel(data[split:]))
	})
}
