package obs

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
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

func TestAdminMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("commits_total", T("scope", "server")).Add(42)
	srv := httptest.NewServer(AdminHandler(AdminOptions{Registry: reg}))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, `commits_total{scope="server"} 42`) {
		t.Fatalf("/metrics missing series: %q", body)
	}
}

func TestAdminHealthz(t *testing.T) {
	healthy := httptest.NewServer(AdminHandler(AdminOptions{}))
	defer healthy.Close()
	if code, body := get(t, healthy, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthy: %d %q", code, body)
	}

	sick := httptest.NewServer(AdminHandler(AdminOptions{
		Health: func() error { return errors.New("dct/lock mismatch") },
	}))
	defer sick.Close()
	if code, body := get(t, sick, "/healthz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "dct/lock mismatch") {
		t.Fatalf("unhealthy: %d %q", code, body)
	}
}

func TestAdminExtraHandlers(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	srv := httptest.NewServer(AdminHandler(AdminOptions{
		Registry: reg,
		Handlers: map[string]http.Handler{
			"/custom": http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				fmt.Fprint(w, "injected")
			}),
		},
	}))
	defer srv.Close()

	if code, body := get(t, srv, "/custom"); code != http.StatusOK || body != "injected" {
		t.Fatalf("/custom: %d %q", code, body)
	}
	// Built-in routes still work alongside injected ones.
	if code, body := get(t, srv, "/metrics"); code != http.StatusOK || !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics with extra handlers: %d %q", code, body)
	}
}

func TestAdminPprof(t *testing.T) {
	srv := httptest.NewServer(AdminHandler(AdminOptions{}))
	defer srv.Close()
	if code, _ := get(t, srv, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}
}

func TestStartAdmin(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("up_total").Inc()
	adm, err := StartAdmin("127.0.0.1:0", AdminOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	resp, err := http.Get("http://" + adm.Addr().String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Fatalf("live endpoint missing metric: %q", body)
	}
}
