package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"keybin2/internal/linalg"
	"keybin2/internal/server"
)

// TestRoleStaysCoherentUnderConcurrentControl hammers one node with
// concurrent /fence, /promote, /epoch and tokened /ingest while a reader
// spins on its role. Every epoch is drawn from one counter and used by
// exactly one request, so what a request may legally do to the role is
// known from its epoch alone:
//
//   - a reader must never see a fenced follower, nor the epoch decrease —
//     the role is one value, not a kind and an epoch published apart;
//   - a node is never a writable primary AT an epoch a fence installed
//     (promotion needs a strictly newer one), so a 202 stamped with a
//     fence's epoch is an ack sent after the fence line: the batch was
//     admitted — or its durability wait outlived the fence — and was
//     acknowledged under the epoch that was meant to stop it.
func TestRoleStaysCoherentUnderConcurrentControl(t *testing.T) {
	// The node's rejoin target: a "primary" whose log cannot be tailed.
	// The follower loop backs off against it; only the role matters here.
	upstream := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "not a real primary", http.StatusServiceUnavailable)
	}))
	defer upstream.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	n := startNode(t, server.Config{
		Stream:     testStreamConfig(3),
		WALDir:     filepath.Join(t.TempDir(), "wal"), // fsync=always: acks wait on the group commit
		QueueDepth: 8,
		RetryAfter: time.Millisecond,
	})
	defer n.stop(t, ctx)

	var (
		nextEpoch   atomic.Int64 // every control request draws a unique epoch
		fenceEpochs sync.Map     // epochs a /fence installed (answered 200)
		ackEpochs   sync.Map     // epochs stamped on 202 acks
		fences      atomic.Int64
		promotes    atomic.Int64
		acks        atomic.Int64
		progress    = make(chan struct{}, 1) // signalled on every counted success
		done        = make(chan struct{})
		wg          sync.WaitGroup
	)
	count := func(n *atomic.Int64) {
		n.Add(1)
		select {
		case progress <- struct{}{}:
		default:
		}
	}
	post := func(path string, token int64, body []byte) (int, http.Header, []byte, bool) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil, nil, false
		}
		if token > 0 {
			req.Header.Set("X-KB2-Epoch", strconv.FormatInt(token, 10))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("POST %s: %v", path, err)
			return 0, nil, nil, false
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header, b, true
	}
	// control runs one kind of control request in a loop until done; every
	// answer outside legal fails the test.
	control := func(name string, path func(epoch int64) string, onOK func(epoch int64), legal ...int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				e := nextEpoch.Add(1)
				code, _, body, ok := post(path(e), 0, nil)
				if !ok {
					return
				}
				if code == http.StatusOK {
					onOK(e)
					continue
				}
				allowed := false
				for _, c := range legal {
					allowed = allowed || c == code
				}
				if !allowed {
					t.Errorf("%s at epoch %d → %d %s", name, e, code, bytes.TrimSpace(body))
					return
				}
			}
		}()
	}
	control("fence", func(e int64) string {
		return fmt.Sprintf("/fence?epoch=%d&primary=%s", e, upstream.URL)
	}, func(e int64) { fenceEpochs.Store(e, true); count(&fences) },
		http.StatusPreconditionFailed) // overtaken by a newer epoch
	control("promote", func(e int64) string {
		return fmt.Sprintf("/promote?epoch=%d", e)
	}, func(int64) { count(&promotes) },
		http.StatusConflict) // already a primary, or overtaken
	control("epoch", func(e int64) string {
		return fmt.Sprintf("/epoch?epoch=%d", e)
	}, func(int64) {},
		http.StatusConflict, http.StatusPreconditionFailed) // a follower, or overtaken

	batch := server.EncodeBatch(linalg.NewMatrix(16, 3))
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var token int64 // the newest epoch this producer has been shown
			for {
				select {
				case <-done:
					return
				default:
				}
				code, hdr, body, ok := post("/ingest", token, batch)
				if !ok {
					return
				}
				if e, err := strconv.ParseInt(hdr.Get("X-KB2-Epoch"), 10, 64); err == nil && e > token {
					token = e
				}
				switch code {
				case http.StatusAccepted:
					var ack struct {
						Epoch int64 `json:"epoch"`
					}
					if err := json.Unmarshal(body, &ack); err != nil {
						t.Errorf("ack body %q: %v", body, err)
						return
					}
					ackEpochs.Store(ack.Epoch, true)
					count(&acks)
				case http.StatusPreconditionFailed, http.StatusMisdirectedRequest, http.StatusTooManyRequests:
					// Fenced or stale, a follower, backpressure: all typed refusals.
				default:
					t.Errorf("ingest → %d %s", code, bytes.TrimSpace(body))
					return
				}
			}
		}()
	}

	// The reader: role coherence, on the node's public view of it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-done:
				return
			default:
			}
			st := n.srv.Stats()
			if st.Role == "follower" && st.Fenced {
				t.Errorf("reader saw a fenced follower at epoch %d", st.Epoch)
				return
			}
			if st.Epoch < last {
				t.Errorf("reader saw the epoch decrease: %d after %d", st.Epoch, last)
				return
			}
			last = st.Epoch
		}
	}()

	// Run until the node has been round the cycle often enough, the
	// context bounding how long that may take.
	const cycles = 20
	for fences.Load() < cycles || promotes.Load() < cycles || acks.Load() < cycles {
		select {
		case <-progress:
		case <-ctx.Done():
			close(done)
			wg.Wait()
			t.Fatalf("after 60s: %d fences, %d promotions, %d acks (want %d of each)",
				fences.Load(), promotes.Load(), acks.Load(), cycles)
		}
		if t.Failed() {
			break
		}
	}
	close(done)
	wg.Wait()

	ackEpochs.Range(func(e, _ any) bool {
		if _, fenced := fenceEpochs.Load(e); fenced {
			t.Errorf("a 202 was stamped with epoch %d, which a fence installed: acked after the fence line", e)
		}
		return true
	})
	t.Logf("%d fences, %d promotions, %d acks", fences.Load(), promotes.Load(), acks.Load())
}
