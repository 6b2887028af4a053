package main

import (
	"strings"
	"testing"
	"time"
)

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("")
	if err != nil || peers != nil {
		t.Fatalf("empty -peers = %v, %v", peers, err)
	}
	peers, err = parsePeers("http://127.0.0.1:8714, https://10.0.0.2:8715/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://127.0.0.1:8714", "https://10.0.0.2:8715"}
	if len(peers) != len(want) {
		t.Fatalf("peers = %v, want %v", peers, want)
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Fatalf("peers = %v, want %v", peers, want)
		}
	}
	for _, bad := range []string{"127.0.0.1:8714", "ftp://host:1", "http://"} {
		if _, err := parsePeers(bad); err == nil || !strings.Contains(err.Error(), "-peers") {
			t.Fatalf("parsePeers(%q) = %v; want -peers rejection", bad, err)
		}
	}
}

func TestValidateCaps(t *testing.T) {
	if err := validateCaps(0, 0); err != nil {
		t.Fatalf("zero caps rejected: %v", err)
	}
	if err := validateCaps(256, 32); err != nil {
		t.Fatalf("positive caps rejected: %v", err)
	}
	for _, tc := range []struct {
		tcap, ccap int
		flag       string
	}{
		{-1, 0, "-trace-cache"},
		{0, -1, "-circuit-cache"},
	} {
		err := validateCaps(tc.tcap, tc.ccap)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("validateCaps(%d,%d) = %v; want %s rejection", tc.tcap, tc.ccap, err, tc.flag)
		}
	}
}

func TestValidateDispatch(t *testing.T) {
	if err := validateDispatch(0, 0, 0); err != nil {
		t.Fatalf("zero dispatch flags rejected: %v", err)
	}
	if err := validateDispatch(128, 30*time.Second, 5); err != nil {
		t.Fatalf("sane dispatch flags rejected: %v", err)
	}
	for _, tc := range []struct {
		cap   int
		to    time.Duration
		tries int
		flag  string
	}{
		{-1, 0, 0, "-store-cache"},
		{0, -time.Second, 0, "-shard-timeout"},
		{0, 0, -1, "-shard-attempts"},
	} {
		err := validateDispatch(tc.cap, tc.to, tc.tries)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Fatalf("validateDispatch(%d,%v,%d) = %v; want %s rejection", tc.cap, tc.to, tc.tries, err, tc.flag)
		}
	}
}

// TestHTTPServerTimeouts: the listener bounds slow headers and idle
// keep-alive connections but not request or response time.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer("127.0.0.1:0", nil)
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Errorf("header timeout %v, idle timeout %v: both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
	if hs.ReadTimeout != 0 || hs.WriteTimeout != 0 {
		t.Errorf("read timeout %v, write timeout %v: long queries and streams need neither", hs.ReadTimeout, hs.WriteTimeout)
	}
}
