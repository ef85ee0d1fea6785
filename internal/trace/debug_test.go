package trace

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func debugGet(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// A tracer-less node's /trace must say so in JSON, not serve an empty
// stream or panic.
func TestDebugTraceDisabled(t *testing.T) {
	var node stats.Node
	srv, err := ServeDebug("127.0.0.1:0", DebugConfig{Node: 3, Stats: node.Snapshot})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body := debugGet(t, srv.Addr(), "/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace status %d", code)
	}
	var got struct {
		Node    int32 `json:"node"`
		Enabled bool  `json:"enabled"`
	}
	if err := json.Unmarshal([]byte(body), &got); err != nil {
		t.Fatalf("/trace body %q: %v", body, err)
	}
	if got.Enabled || got.Node != 3 {
		t.Fatalf("/trace with nil tracer = %+v, want enabled=false node=3", got)
	}
}

// Extra routes must be served and listed on the index page.
func TestDebugExtraRoutes(t *testing.T) {
	var node stats.Node
	srv, err := ServeDebug("127.0.0.1:0", DebugConfig{
		Node:  0,
		Stats: node.Snapshot,
		Extra: map[string]http.Handler{
			"/metrics": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, "# sampler disabled\n")
			}),
			"/metrics.json": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.WriteString(w, `{"enabled": false}`)
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, index := debugGet(t, srv.Addr(), "/")
	for _, want := range []string{"/metrics\n", "/metrics.json\n", "/stats", "/trace"} {
		if !strings.Contains(index, want) {
			t.Fatalf("index page missing %q:\n%s", want, index)
		}
	}
	if code, body := debugGet(t, srv.Addr(), "/metrics"); code != http.StatusOK || !strings.Contains(body, "sampler disabled") {
		t.Fatalf("/metrics not wired: %d %q", code, body)
	}
}

// Close must let an in-flight scrape finish (graceful shutdown), not
// sever it mid-response.
func TestDebugCloseGraceful(t *testing.T) {
	var node stats.Node
	slowDone := make(chan struct{})
	srv, err := ServeDebug("127.0.0.1:0", DebugConfig{
		Node:  0,
		Stats: node.Snapshot,
		Extra: map[string]http.Handler{
			"/slow": http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(100 * time.Millisecond)
				io.WriteString(w, "done")
				close(slowDone)
			}),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 1)
	go func() {
		_, body := debugGet(t, srv.Addr(), "/slow")
		got <- body
	}()
	time.Sleep(20 * time.Millisecond) // let the scrape get in flight
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case body := <-got:
		if body != "done" {
			t.Fatalf("in-flight scrape got %q, want %q", body, "done")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight scrape never completed")
	}
	<-slowDone
}
