package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"keybin2/internal/client"
	"keybin2/internal/linalg"
	"keybin2/internal/server"
	"keybin2/internal/synth"
	"keybin2/internal/xrand"
)

// producer is the idempotency identity every ledger write carries.
const producer = "chaos"

// ledger is what the harness holds acknowledgements for: the producer's
// acked-sequence high-water mark, the points those acks cover, and the
// one batch whose fate a kill left open. Every audit a scenario runs is
// "the fleet still has everything in the ledger".
type ledger struct {
	cfg   Config
	spec  *synth.MixtureSpec
	probe *linalg.Matrix
	// patience bounds how long applied points may trail the acks in audit
	// and converge; tests shorten it.
	patience time.Duration

	next    uint64 // last allocated producer sequence
	acked   uint64 // highest sequence the harness holds a 202 for
	batches int64  // acks in hand
	points  int64  // points they cover
	dupes   int64  // re-sends the fleet re-acked as duplicates
	// pending is the in-flight batch of the last kill (0 = none);
	// pendAcked says its ack WAS received and then dropped on purpose, so
	// the re-send must come back as a duplicate.
	pending   uint64
	pendAcked bool
}

func newLedger(cfg Config) *ledger {
	return &ledger{
		cfg:      cfg,
		spec:     synth.AutoMixture(4, cfg.Dims, 6, 1, xrand.New(cfg.Seed)),
		probe:    probe(cfg.Dims, 256, cfg.Seed),
		patience: 30 * time.Second,
	}
}

// probe is the fixed batch every label-consistency check labels. It is
// derived from the seed alone, so any process with equal arguments
// regenerates identical points.
func probe(dims, n int, seed int64) *linalg.Matrix {
	batch, _ := synth.AutoMixture(4, dims, 6, 1, xrand.New(seed)).Sample(n, xrand.New(seed+7))
	return batch
}

// wire carries all harness traffic: a request that hangs on a dead node
// fails in seconds, whatever the scenario's own deadline is.
var wire = &http.Client{Timeout: 5 * time.Second}

// node builds the harness's client for one process, under the ledger's
// producer identity. Every harness client retries with the patience an
// election needs: 200 attempts, 50 ms doubling to 1 s.
func node(p *Proc) *client.Client {
	c := client.NewWithHTTPClient(p.URL, wire)
	c.SetProducer(producer)
	c.SetRetryPolicy(client.RetryPolicy{MaxAttempts: 200, BaseBackoff: 50 * time.Millisecond, MaxBackoff: time.Second})
	return c
}

// batch derives batch #pseq from the seed alone, so a re-send after a
// crash reproduces the identical bytes the original ack covered.
func (l *ledger) batch(pseq uint64) *linalg.Matrix {
	b, _ := l.spec.Sample(l.cfg.Batch, xrand.New(l.cfg.Seed+int64(pseq)))
	return b
}

// record books one ack. A duplicate re-ack counts its points now: the
// original's ack never reached the ledger.
func (l *ledger) record(pseq uint64, ack client.IngestAck) {
	if ack.Duplicate {
		l.dupes++
	}
	l.batches++
	l.points += int64(l.cfg.Batch)
	if pseq > l.acked {
		l.acked = pseq
	}
}

// send submits the next batch through the client's retrying send, under
// the sequence the ledger chose, and books its ack.
func (l *ledger) send(ctx context.Context, c *client.Client) (client.IngestAck, error) {
	l.next++
	ack, err := c.IngestSeq(ctx, l.batch(l.next), l.next)
	if err != nil {
		return ack, fmt.Errorf("ingest pseq %d: %w", l.next, err)
	}
	l.record(l.next, ack)
	return ack, nil
}

// settle re-sends the batch the last kill left in flight, under the SAME
// sequence: if the original reached the WAL the fleet re-acks it as a
// duplicate, if not it is applied fresh — either way it counts once. A
// batch whose ack was in hand before the kill MUST come back a duplicate.
func (l *ledger) settle(ctx context.Context, c *client.Client) error {
	if l.pending == 0 {
		return nil
	}
	ack, err := c.IngestSeq(ctx, l.batch(l.pending), l.pending)
	if err != nil {
		return fmt.Errorf("resend pseq %d: %w", l.pending, err)
	}
	l.record(l.pending, ack)
	if l.pendAcked && !ack.Duplicate {
		return fmt.Errorf("pseq %d was acked before the kill but re-applied after it: the WAL lost an acknowledged batch", l.pending)
	}
	l.pending, l.pendAcked = 0, false
	return nil
}

// audit is the durability check against a node that just recovered
// (restarted, promoted, elected): its producer high-water mark covers
// every ack in the ledger, and its applied points reach the acked volume.
// The recovery is logged with the incarnation's run id and what its WAL
// replay did, so a failure matches the exact daemon log and trace stream.
func (l *ledger) audit(ctx context.Context, c *client.Client, what string) error {
	st, err := c.Stats(ctx)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if st.WAL != nil {
		fmt.Fprintf(os.Stderr, "chaos: %s run_id=%s role=%s replayed_batches=%d replayed_points=%d last_seq=%d\n",
			what, st.RunID, st.Role, st.WAL.ReplayedBatches, st.WAL.ReplayedPoints, st.WAL.LastSeq)
	}
	if st.Producers[producer] < l.acked {
		return fmt.Errorf("%s: ACKED BATCH LOST: node recovered producer seq %d, harness holds ack for %d",
			what, st.Producers[producer], l.acked)
	}
	if err := l.converge(ctx, c); err != nil {
		return fmt.Errorf("%s: acked points never replayed: %w", what, err)
	}
	return nil
}

// converge waits until every node has applied the ledger's acked points.
func (l *ledger) converge(ctx context.Context, nodes ...*client.Client) error {
	wctx, cancel := context.WithTimeout(ctx, l.patience)
	defer cancel()
	for i, c := range nodes {
		if err := c.WaitSeen(wctx, l.points); err != nil {
			return fmt.Errorf("node %d never converged to %d points: %w", i, l.points, err)
		}
	}
	return nil
}

// How much two answers to the probe must share. Replicas of one WAL owe
// the same labels from the same model generation; a restarted node, a
// shard or a router counts its own installs and owes only the labels.
const (
	sameModel  = true
	sameLabels = false
)

// agree labels the probe on every node and fails unless each answers as
// want does — or, with want nil, as nodes[0] does. It returns the
// reference answer, so a later check can hold the fleet to it.
func (l *ledger) agree(ctx context.Context, want *client.LabelResult, gen bool, nodes ...*client.Client) (client.LabelResult, error) {
	for i, c := range nodes {
		got, err := c.Label(ctx, l.probe)
		if err != nil {
			return got, fmt.Errorf("node %d probe: %w", i, err)
		}
		if want == nil {
			want = &got
			continue
		}
		if gen && want.ModelGen != got.ModelGen {
			return got, fmt.Errorf("node %d: model_gen %d vs %d", i, want.ModelGen, got.ModelGen)
		}
		mismatch := 0
		for j := range want.Labels {
			if want.Labels[j] != got.Labels[j] {
				mismatch++
			}
		}
		if mismatch > 0 {
			return got, fmt.Errorf("node %d: %d of %d probe labels differ (gen %d vs %d)",
				i, mismatch, len(want.Labels), want.ModelGen, got.ModelGen)
		}
	}
	return *want, nil
}

// expectRedirect asserts that a follower refuses a plain write locally
// with 421 and names the primary. It goes to the wire: the client would
// transparently redeem that redirect — the typed reply's whole point —
// and the write would land on the primary behind the ledger's back.
func (l *ledger) expectRedirect(ctx context.Context, follower, primary *Proc) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, follower.URL+"/ingest",
		bytes.NewReader(server.EncodeBatch(l.batch(l.next+1))))
	if err != nil {
		return err
	}
	resp, err := wire.Do(req)
	if err != nil {
		return fmt.Errorf("follower ingest: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusMisdirectedRequest {
		return fmt.Errorf("follower %s answered a plain ingest with %d, want the 421 primary redirect", follower.URL, resp.StatusCode)
	}
	if hint := resp.Header.Get("X-KB2-Primary"); hint != primary.URL {
		return fmt.Errorf("follower's 421 redirect names %q, want %q", hint, primary.URL)
	}
	return nil
}

// call issues one body-less request against an endpoint the client has no
// method for (the router's /stats and /merge, the supervisor's /status,
// /trace) and decodes its 200 JSON reply into v (nil = discard).
func call(ctx context.Context, method, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return err
	}
	resp, err := wire.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", method, url, resp.Status)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// await polls cond every 20 ms until it holds, or fails after the
// ledger's patience with the last state cond described.
func (l *ledger) await(ctx context.Context, what string, cond func() (bool, string)) error {
	wctx, cancel := context.WithTimeout(ctx, l.patience)
	defer cancel()
	for {
		ok, state := cond()
		if ok {
			return nil
		}
		select {
		case <-time.After(20 * time.Millisecond):
		case <-wctx.Done():
			return fmt.Errorf("never reached %s (%s)", what, state)
		}
	}
}
