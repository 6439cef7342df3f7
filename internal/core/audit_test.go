package core

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"smarteryou/internal/sensing"
)

func auditDecision(score float64) Decision {
	return Decision{
		Context:  sensing.CoarseMoving,
		Score:    score,
		Accepted: score > 0,
	}
}

func TestAuditLogAppendAndVerify(t *testing.T) {
	log := NewAuditLog()
	for i := 0; i < 20; i++ {
		log.Append(float64(i)*6, auditDecision(float64(i)-10), ActionAllow)
	}
	if log.Len() != 20 {
		t.Fatalf("Len = %d, want 20", log.Len())
	}
	entries := log.Entries()
	if bad := VerifyAuditChain(entries); bad != -1 {
		t.Fatalf("intact chain reported corruption at %d", bad)
	}
}

func TestAuditLogDetectsTampering(t *testing.T) {
	log := NewAuditLog()
	for i := 0; i < 10; i++ {
		log.Append(float64(i)*6, auditDecision(1), ActionAllow)
	}
	cases := []struct {
		name   string
		mutate func([]AuditEntry) []AuditEntry
		want   int
	}{
		{"score edit", func(e []AuditEntry) []AuditEntry {
			e[4].Score = -5
			return e
		}, 4},
		{"accepted flip", func(e []AuditEntry) []AuditEntry {
			e[7].Accepted = false
			return e
		}, 7},
		{"action rewrite", func(e []AuditEntry) []AuditEntry {
			e[2].Action = "lock"
			return e
		}, 2},
		{"deletion", func(e []AuditEntry) []AuditEntry {
			return append(e[:3], e[4:]...)
		}, 3},
		{"reorder", func(e []AuditEntry) []AuditEntry {
			e[5], e[6] = e[6], e[5]
			return e
		}, 5},
		{"truncation then append forged", func(e []AuditEntry) []AuditEntry {
			forged := e[9]
			forged.Seq = 5
			return append(e[:5], forged)
		}, 5},
	}
	for _, c := range cases {
		entries := log.Entries()
		mutated := c.mutate(entries)
		if bad := VerifyAuditChain(mutated); bad != c.want {
			t.Errorf("%s: corruption reported at %d, want %d", c.name, bad, c.want)
		}
	}
}

func TestAuditLogExportImport(t *testing.T) {
	log := NewAuditLog()
	for i := 0; i < 5; i++ {
		log.Append(float64(i)*6, auditDecision(0.5), ActionAllow)
	}
	// Export: the entries as JSON, for offline storage or forensics.
	blob, err := json.Marshal(log.Entries())
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	// Import: decode, then verify the hash chain.
	importLog := func(data []byte) ([]AuditEntry, error) {
		var entries []AuditEntry
		if err := json.Unmarshal(data, &entries); err != nil {
			return nil, err
		}
		if bad := VerifyAuditChain(entries); bad >= 0 {
			return nil, fmt.Errorf("audit chain broken at entry %d", bad)
		}
		return entries, nil
	}
	entries, err := importLog(blob)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if len(entries) != 5 {
		t.Fatalf("imported %d entries, want 5", len(entries))
	}
	// Corrupt the export: import must fail.
	corrupted := []byte(string(blob))
	for i := range corrupted {
		if corrupted[i] == ':' {
			// Flip a digit after some colon deep in the payload.
			corrupted[len(corrupted)/2] ^= 1
			break
		}
	}
	if _, err := importLog(corrupted); err == nil {
		t.Errorf("corrupted export should fail to import")
	}
	if _, err := importLog([]byte("not json")); err == nil {
		t.Errorf("invalid json should fail")
	}
}

func TestAuditLogConcurrent(t *testing.T) {
	log := NewAuditLog()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				log.Append(float64(i), auditDecision(1), ActionAllow)
			}
		}()
	}
	wg.Wait()
	if log.Len() != 800 {
		t.Fatalf("Len = %d, want 800", log.Len())
	}
	if bad := VerifyAuditChain(log.Entries()); bad != -1 {
		t.Fatalf("concurrent appends broke the chain at %d", bad)
	}
}

func TestAuditEmptyChain(t *testing.T) {
	if bad := VerifyAuditChain(nil); bad != -1 {
		t.Errorf("empty chain reported corruption at %d", bad)
	}
}
