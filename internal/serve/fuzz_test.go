package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// fuzzMaxSteps bounds every interpreter run the fuzzed server makes, so one
// input costs milliseconds however it loops.
const fuzzMaxSteps = 200_000

// FuzzServeRequest drives arbitrary bodies through the daemon's handler:
// whatever the bytes, the answer must be a 200, 400, 429 or 503 carrying a
// JSON CompileResponse. A panic would surface as a 500 from the recover
// boundary. The corpus is every IR reproducer and directed peephole entry
// under internal/difftest/testdata, each posted with run and with_profile
// set, plus MiniJava and malformed bodies.
func FuzzServeRequest(f *testing.F) {
	for _, pat := range []string{"*.ir", "peep/*.ir"} {
		files, err := filepath.Glob(filepath.Join("..", "difftest", "testdata", pat))
		if err != nil {
			f.Fatal(err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			body, err := json.Marshal(&CompileRequest{IR: string(src), Run: true, WithProfile: true})
			if err != nil {
				f.Fatal(err)
			}
			f.Add(body)
		}
	}
	f.Add([]byte(`{"source": "void main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } print(s); }", "run": true, "with_profile": true}`))
	f.Add([]byte(`{"source": "void main() { byte b = (byte) 200; print(b); }", "variant": "basic", "machine": "ppc64", "run": true}`))
	f.Add([]byte(`{"ir": "func main() {\n}", "with_profile": true}`))
	f.Add([]byte(`{"ir": "globals 1\nfunc main() {\nb0:\n\tr0 = loadg.32 g5\n\tret\n}", "run": true}`))
	f.Add([]byte(`{"ir": "func f(r0 i32) i32 {\nb0:\n\tret.32 r0\n}\nfunc main() {\nb0:\n\tr0 = const 1\n\tr1 = call f (r0, r0)\n\tret\n}", "with_profile": true}`))
	f.Add([]byte(`{"ir": "func main() {\nb0:\n\tr0 = fcall sqrt ()\n\tret\n}", "run": true}`))
	f.Add([]byte(`{"source": "void main() {}", "deadline_ms": 1, "max_steps": 5}`))
	f.Add([]byte(`{"source": 7}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))

	s, err := New(Config{CacheBytes: 4 << 20, MaxSteps: fuzzMaxSteps})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var resp CompileResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d: body is not a JSON CompileResponse: %v\n%s", rec.Code, err, rec.Body)
		}
		if rec.Code != http.StatusOK && resp.Error == "" {
			t.Fatalf("status %d without a diagnostic", rec.Code)
		}
	})
}
