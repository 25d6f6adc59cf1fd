// Submission bodies at both hops: the router and the shard decode a
// job spec through the one serve.DecodeJobSpec and read it through the
// one serve.ReadBody, so they refuse the same bodies with the same
// status and text, and the router refuses them before any proxying.
package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"hpfcg/internal/serve"
)

// errorText decodes an error response's message.
func errorText(t *testing.T, body io.Reader) string {
	t.Helper()
	var e serve.ErrorResponse
	if err := json.NewDecoder(body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	return e.Error
}

// TestTrailingDataRefusedAtBothHops: a body with anything but
// whitespace after the spec object is a 400 at the shard and at the
// router; a second object is refused too, so an unknown field in it
// cannot slip past the strict decoder.
func TestTrailingDataRefusedAtBothHops(t *testing.T) {
	sh := startShard(t, "tail", serve.Options{Workers: 1})
	_, rts := startRouter(t, sh)
	for _, body := range []string{
		`{"matrix":"laplace1d:8","np":2} junk`,
		`{"matrix":"laplace1d:8","np":2}{"bogus":1}`,
	} {
		for _, hop := range []struct{ name, url string }{{"shard", sh.ts.URL}, {"router", rts.URL}} {
			resp, err := http.Post(hop.url+"/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			msg := errorText(t, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "data after the top-level value") {
				t.Errorf("%s, %s: status %d %q, want 400 naming the trailing data", hop.name, body, resp.StatusCode, msg)
			}
		}
	}
}

// TestRouterRefusesBeforeProxying: a spec the strict decoder refuses —
// an unknown field or trailing data — is a 400 from the router itself,
// and the shard never sees the request.
func TestRouterRefusesBeforeProxying(t *testing.T) {
	sh := startShard(t, "guarded", serve.Options{Workers: 1})
	var hits atomic.Int64
	inner := sh.ts.Config.Handler
	sh.ts.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		inner.ServeHTTP(w, r)
	})
	_, rts := startRouter(t, sh)
	for _, body := range []string{
		`{"matrix":"laplace1d:8","np":2,"bogus":1}`,
		`{"matrix":"laplace1d:8","np":2} junk`,
	} {
		resp, err := http.Post(rts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("the shard handled %d requests the router should have refused", n)
	}
}

// filler is a body of n bytes that allocates nothing: it hands back the
// reader's own buffer as the next n bytes.
type filler struct{ n int64 }

func (f *filler) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, io.EOF
	}
	k := int(min(int64(len(p)), f.n))
	f.n -= int64(k)
	return k, nil
}

// TestOversizeBody413AtBothHops: a body one byte over the bound is a
// 413 with the same text at both hops, whether its Content-Length says
// so (refused unread) or it streams with no length (refused at the
// bound).
func TestOversizeBody413AtBothHops(t *testing.T) {
	sh := startShard(t, "big", serve.Options{Workers: 1})
	_, rts := startRouter(t, sh)
	const want = "bad job spec: http: request body too large"
	for _, hop := range []struct {
		name string
		h    http.Handler
	}{{"shard", sh.ts.Config.Handler}, {"router", rts.Config.Handler}} {
		for _, length := range []int64{serve.MaxBodyBytes + 1, -1} {
			req := httptest.NewRequest("POST", "/jobs", &filler{n: serve.MaxBodyBytes + 1})
			req.ContentLength = length
			rec := httptest.NewRecorder()
			hop.h.ServeHTTP(rec, req)
			if msg := errorText(t, rec.Body); rec.Code != http.StatusRequestEntityTooLarge || msg != want {
				t.Errorf("%s, Content-Length %d: status %d %q, want 413 %q", hop.name, length, rec.Code, msg, want)
			}
		}
	}
}

// TestDeclaredLengthNotReserved: a Content-Length is a claim, not data.
// A request that declares MaxBodyBytes and sends a few bytes costs
// either hop far less than the declared size, so header-only
// connections cannot hold memory they never upload.
func TestDeclaredLengthNotReserved(t *testing.T) {
	sh := startShard(t, "claim", serve.Options{Workers: 1})
	_, rts := startRouter(t, sh)
	for _, hop := range []struct {
		name string
		h    http.Handler
	}{{"shard", sh.ts.Config.Handler}, {"router", rts.Config.Handler}} {
		req := httptest.NewRequest("POST", "/jobs", strings.NewReader(`{`))
		req.ContentLength = serve.MaxBodyBytes
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hop.h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", hop.name, rec.Code)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > serve.MaxBodyBytes/16 {
			t.Errorf("%s: a 1-byte body declaring %d bytes allocated %d bytes", hop.name, serve.MaxBodyBytes, n)
		}
	}
}

// TestEscapedUploadPlacesAsPlain: placement hashes an upload's text,
// not its JSON spelling. An upload with a digit written \u0031 has the
// plain spelling's placement key, lands on its shard and runs from its
// plan.
func TestEscapedUploadPlacesAsPlain(t *testing.T) {
	var list []*testShard
	for _, name := range []string{"e1", "e2", "e3"} {
		list = append(list, startShard(t, name, serve.Options{Workers: 1, MaxBatch: 1}))
	}
	_, rts := startRouter(t, list...)

	const doc = "%%MatrixMarket matrix coordinate real general\n3 3 7\n" +
		"1 1 4.0\n1 2 -1.0\n2 1 -1.0\n2 2 4.0\n2 3 -1.0\n3 2 -1.0\n3 3 4.0\n"
	plain := uploadSpec(t, doc)
	escaped := strings.Replace(plain, `\n1 1 4.0`, `\n\u0031 1 4.0`, 1)
	if escaped == plain {
		t.Fatal("the escape was not applied")
	}
	var keys [2]string
	for i, body := range []string{plain, escaped} {
		spec, err := serve.DecodeJobSpec([]byte(body))
		if err != nil || spec.MatrixMarket != doc {
			t.Fatalf("body %d: upload %q, error %v", i, spec.MatrixMarket, err)
		}
		keys[i] = spec.PlacementKey()
	}
	if keys[0] != keys[1] {
		t.Fatalf("placement keys differ: %s plain, %s escaped", keys[0], keys[1])
	}
	first, v1 := runJob(t, rts.URL, plain)
	second, v2 := runJob(t, rts.URL, escaped)
	if first.Shard != second.Shard {
		t.Fatalf("plain upload on %s, escaped spelling on %s", first.Shard, second.Shard)
	}
	if v1.State != serve.StateDone || v2.State != serve.StateDone || !v2.Result.PlanCacheHit {
		t.Fatalf("plain %s, escaped %s (plan_cache_hit %v), want both done and the second a hit",
			v1.State, v2.State, v2.Result != nil && v2.Result.PlanCacheHit)
	}
}
