package server

import (
	"errors"
	"testing"

	"keybin2/internal/core"
	"keybin2/internal/xrand"
)

// roleTestServer builds a node with no sockets and no serving loop: the
// role state machine needs neither.
func roleTestServer(t *testing.T, followURL string, epoch int64) *Server {
	t.Helper()
	s, err := New(Config{
		Stream: core.StreamConfig{
			Config:    core.Config{Seed: 7, Trials: 2},
			Dims:      2,
			RawRanges: [][2]float64{{-1, 1}, {-1, 1}},
		},
		FollowURL: followURL,
		Epoch:     epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRoleTransitionTable walks every edge of the role state machine:
// each legal request lands on the stated role, each illegal one returns
// its typed error, and a refused request leaves the role pointer itself
// untouched.
func TestRoleTransitionTable(t *testing.T) {
	const a, b = "http://a", "http://b"
	primary := func(epoch int64, hint string) role { return role{rolePrimary, epoch, hint} }
	follower := func(epoch int64, of string) role { return role{roleFollower, epoch, of} }
	fenced := func(epoch int64, hint string) role { return role{roleFenced, epoch, hint} }
	is := func(want error) func(error) bool {
		return func(err error) bool { return errors.Is(err, want) }
	}
	stale := func(err error) bool { var e *staleEpochError; return errors.As(err, &e) }
	own := func(err error) bool { var e *ownEpochError; return errors.As(err, &e) }

	cases := []struct {
		name    string
		from    role
		change  roleChange
		want    role             // on success
		refused func(error) bool // nil = the edge is legal
	}{
		{"promote mints current+1", follower(4, a), roleChange{op: opPromote}, primary(5, a), nil},
		{"promote adopts a newer epoch", follower(4, a), roleChange{op: opPromote, epoch: 9}, primary(9, a), nil},
		{"promote at the current epoch is stale", follower(4, a), roleChange{op: opPromote, epoch: 4}, role{}, stale},
		{"promote below the current epoch is stale", follower(4, a), roleChange{op: opPromote, epoch: 2}, role{}, stale},
		{"promote a primary", primary(4, ""), roleChange{op: opPromote}, role{}, is(errAlreadyPrimary)},
		{"promote a fenced node", fenced(4, a), roleChange{op: opPromote, epoch: 9}, role{}, is(errAlreadyPrimary)},

		{"fence a primary at a newer epoch", primary(4, ""), roleChange{op: opFence, epoch: 5}, fenced(5, ""), nil},
		{"fence a primary with a rejoin target", primary(4, ""), roleChange{op: opFence, epoch: 5, target: b}, fenced(5, b), nil},
		{"fence the primary at its own epoch", primary(4, ""), roleChange{op: opFence, epoch: 4, target: b}, role{}, own},
		{"fence below the current epoch is stale", primary(4, ""), roleChange{op: opFence, epoch: 3}, role{}, stale},
		{"re-fence a fenced node at its epoch", fenced(5, ""), roleChange{op: opFence, epoch: 5, target: b}, fenced(5, b), nil},
		{"re-fence keeps the hint without a target", fenced(5, a), roleChange{op: opFence, epoch: 6}, fenced(6, a), nil},
		{"fence a follower adopts the epoch", follower(4, a), roleChange{op: opFence, epoch: 6}, follower(6, a), nil},
		{"fence a follower re-points it", follower(4, a), roleChange{op: opFence, epoch: 4, target: b}, follower(4, b), nil},
		{"fence a follower below its epoch is stale", follower(4, a), roleChange{op: opFence, epoch: 3, target: b}, role{}, stale},

		{"rejoin a fenced node", fenced(5, ""), roleChange{op: opRejoin, target: b}, follower(5, b), nil},
		{"rejoin without a target", fenced(5, b), roleChange{op: opRejoin}, role{}, is(errNoRejoinTarget)},
		{"rejoin an unfenced primary", primary(5, ""), roleChange{op: opRejoin, target: b}, role{}, is(errNotFenced)},
		{"rejoin a follower", follower(5, a), roleChange{op: opRejoin, target: b}, role{}, is(errNotFenced)},

		{"adopt raises a primary's epoch", primary(0, ""), roleChange{op: opAdopt, epoch: 1}, primary(1, ""), nil},
		{"adopt at the current epoch is a no-op", primary(3, ""), roleChange{op: opAdopt, epoch: 3}, primary(3, ""), nil},
		{"adopt raises a fenced node's epoch", fenced(3, a), roleChange{op: opAdopt, epoch: 4}, fenced(4, a), nil},
		{"adopt below the current epoch is stale", primary(3, ""), roleChange{op: opAdopt, epoch: 2}, role{}, stale},
		{"adopt on a follower", follower(3, a), roleChange{op: opAdopt, epoch: 9}, role{}, is(errFollowerEpoch)},

		{"boot twice", primary(0, ""), roleChange{op: opBoot, target: a}, role{}, is(errBootOnce)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := nodeAt(t, tc.from)
			before := s.role.Load()
			prev, now, err := s.transition(tc.change)
			if tc.refused != nil {
				if err == nil || !tc.refused(err) {
					t.Fatalf("%v --%+v--> error %v (%T), want the edge's typed refusal", tc.from, tc.change, err, err)
				}
				if s.role.Load() != before {
					t.Fatalf("a refused request replaced the role pointer: now %v", *s.role.Load())
				}
				return
			}
			if err != nil {
				t.Fatalf("refused: %v", err)
			}
			if prev != tc.from || now != tc.want || *s.role.Load() != tc.want {
				t.Fatalf("%v --%+v--> %v (published %v), want %v", prev, tc.change, now, *s.role.Load(), tc.want)
			}
		})
	}
}

// nodeAt builds a node and walks it to r over legal edges only.
func nodeAt(t *testing.T, r role) *Server {
	t.Helper()
	var s *Server
	switch r.kind {
	case rolePrimary:
		s = roleTestServer(t, "", r.epoch)
	case roleFollower:
		s = roleTestServer(t, r.primary, r.epoch)
	case roleFenced:
		s = roleTestServer(t, "", r.epoch-1)
		if _, _, err := s.transition(roleChange{op: opFence, epoch: r.epoch, target: r.primary}); err != nil {
			t.Fatal(err)
		}
	}
	if got := *s.role.Load(); got != r {
		t.Fatalf("set-up reached %v, want %v", got, r)
	}
	return s
}

// TestRoleBoot pins the first edge: New gives a node its role through the
// same transition, a follower when it has someone to follow.
func TestRoleBoot(t *testing.T) {
	if got, want := *roleTestServer(t, "", 3).role.Load(), (role{rolePrimary, 3, ""}); got != want {
		t.Fatalf("born primary = %v, want %v", got, want)
	}
	if got, want := *roleTestServer(t, "http://p/", 0).role.Load(), (role{roleFollower, 0, "http://p"}); got != want {
		t.Fatalf("born follower = %v, want %v", got, want)
	}
}

// TestRoleEpochMonotoneRandomWalk throws 10k seeded random requests at
// one node. Whatever is accepted or refused, the epoch never decreases, a
// refused request changes nothing, and the published role is always the
// one the last accepted request produced.
func TestRoleEpochMonotoneRandomWalk(t *testing.T) {
	s := roleTestServer(t, "", 0)
	rng := xrand.New(20260927)
	targets := []string{"", "http://a", "http://b"}
	cur := *s.role.Load()
	accepted := 0
	for i := 0; i < 10000; i++ {
		c := roleChange{
			op:     roleOp(1 + rng.Intn(4)), // every op but boot
			epoch:  cur.epoch - 2 + int64(rng.Intn(5)),
			target: targets[rng.Intn(len(targets))],
		}
		if c.epoch < 0 {
			c.epoch = 0
		}
		prev, now, err := s.transition(c)
		if prev != cur {
			t.Fatalf("step %d: transition started from %v, node was at %v", i, prev, cur)
		}
		if err != nil && now != cur {
			t.Fatalf("step %d: refused %+v (%v) yet moved %v -> %v", i, c, err, cur, now)
		}
		if now.epoch < cur.epoch {
			t.Fatalf("step %d: %+v lowered the epoch: %v -> %v", i, c, cur, now)
		}
		if now.kind == roleFollower && now.primary == "" {
			t.Fatalf("step %d: %+v made a follower of nobody: %v", i, c, now)
		}
		if got := *s.role.Load(); got != now {
			t.Fatalf("step %d: published %v, transition returned %v", i, got, now)
		}
		if err == nil && now != cur {
			accepted++
		}
		cur = now
	}
	if accepted < 1000 {
		t.Fatalf("walk only changed the role %d times in 10k steps; the generator is not exercising the machine", accepted)
	}
}
