package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// checkParIgnored: the server reads no ?par= parameter. After path is
// computed once, the same path with par=4 or an unparsable par returns
// the same bytes, and from the cache: par is no cache key and no longer
// a 400.
func checkParIgnored(t *testing.T, path string) {
	t.Helper()
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, base, xc := get(t, ts, path)
	if status != http.StatusOK || xc != "miss" {
		t.Fatalf("%s: status=%d X-Cache=%q body=%s", path, status, xc, base)
	}
	for _, par := range []string{"4", "junk"} {
		status, body, xc := get(t, ts, path+"&par="+par)
		if status != http.StatusOK || xc != "hit" {
			t.Fatalf("par=%s: status=%d X-Cache=%q body=%s, want 200 from the cache", par, status, xc, body)
		}
		if !bytes.Equal(body, base) {
			t.Fatalf("par=%s: body differs from the request without par:\n%s\nvs\n%s", par, body, base)
		}
	}
}

// TestExperimentParKnob: ?par= no longer selects anything on the
// experiment route. PD1 is the experiment that builds a partitioned
// engine.
func TestExperimentParKnob(t *testing.T) {
	checkParIgnored(t, "/v1/experiments/PD1?format=rows")
}
