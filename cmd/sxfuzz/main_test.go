package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"signext/internal/difftest"
)

func TestRunCleanCampaign(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "1", "-count", "20"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var res difftest.CampaignResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatalf("verdict is not one-line JSON: %v\n%s", err, stdout.String())
	}
	if !res.OK || res.Programs != 20 || res.Failures != 0 {
		t.Fatalf("unexpected verdict: %+v", res)
	}
	if strings.Count(strings.TrimSpace(stdout.String()), "\n") != 0 {
		t.Fatalf("verdict spans multiple lines:\n%s", stdout.String())
	}
}

func TestRunChaosSelfCheck(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-seed", "1", "-count", "12", "-chaos", "-minimize",
		"-repros", "1", "-out", dir}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	var res difftest.CampaignResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Caught < 1 || len(res.Repros) < 1 {
		t.Fatalf("chaos self-check found nothing: %+v", res)
	}
	if filepath.Dir(res.Repros[0]) != dir {
		t.Fatalf("reproducer outside -out: %s", res.Repros[0])
	}
}

func TestRunBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-kind", "cobol"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad -kind: exit %d", code)
	}
	if code := run([]string{"stray"}, &stdout, &stderr); code != 2 {
		t.Fatalf("stray arg: exit %d", code)
	}
	stderr.Reset()
	if code := run([]string{"-props", "bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-props bogus: exit %d", code)
	}
	for _, name := range difftest.PropNames() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("-props bogus diagnostic does not list %s:\n%s", name, stderr.String())
		}
	}
}
