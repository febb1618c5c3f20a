package rest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDatasetImportExportREST(t *testing.T) {
	srv, _, _ := newServer(t)
	csv := "id,name,city\nu1,Ann,Oslo\nu2,Bo,Rio\n"

	resp, err := http.Post(srv.URL+"/v1/dataset/users?key=id", "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("import: %d %s", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/v1/dataset/users")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("export code %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != csv {
		t.Fatalf("export = %q, %v", body, err)
	}
}

func TestDatasetStatAndDiffREST(t *testing.T) {
	srv, _, _ := newServer(t)
	csv1 := "id,qty\np1,10\np2,20\np3,30\n"
	csv2 := "id,qty\np1,10\np2,99\np4,40\n"

	post := func(url, payload string) {
		t.Helper()
		resp, err := http.Post(url, "text/csv", strings.NewReader(payload))
		if err != nil || resp.StatusCode != http.StatusCreated {
			t.Fatalf("post %s: %v %d", url, err, resp.StatusCode)
		}
		resp.Body.Close()
	}
	post(srv.URL+"/v1/dataset/stock?key=id", csv1)
	code, _ := doJSON(t, http.MethodPost, srv.URL+"/v1/obj/stock/branch", branchBody{New: "vendor"})
	if code != http.StatusCreated {
		t.Fatalf("branch: %d", code)
	}
	post(srv.URL+"/v1/dataset/stock?key=id&branch=vendor", csv2)

	code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/dataset/stock/stat", nil)
	if code != http.StatusOK || body["rows"].(float64) != 3 || body["columns"].(float64) != 2 {
		t.Fatalf("stat: %d %v", code, body)
	}

	code, body = doJSON(t, http.MethodGet, srv.URL+"/v1/dataset/stock/diff?from=master&to=vendor", nil)
	if code != http.StatusOK {
		t.Fatalf("diff: %d %v", code, body)
	}
	deltas := body["deltas"].([]any)
	if len(deltas) != 3 {
		t.Fatalf("deltas = %v", deltas)
	}
	kinds := map[string]string{}
	var cells []any
	for _, d := range deltas {
		m := d.(map[string]any)
		kinds[m["key"].(string)] = m["kind"].(string)
		if m["key"] == "p2" {
			cells = m["cells"].([]any)
		}
	}
	if kinds["p2"] != "modified" || kinds["p3"] != "removed" || kinds["p4"] != "added" {
		t.Fatalf("kinds = %v", kinds)
	}
	if len(cells) != 1 || cells[0].(map[string]any)["column"] != "qty" {
		t.Fatalf("cells = %v", cells)
	}
}

func TestDatasetRESTErrors(t *testing.T) {
	srv, _, _ := newServer(t)
	resp, err := http.Post(srv.URL+"/v1/dataset/bad?key=nope", "text/csv", strings.NewReader("a,b\n1,2\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad key column: %d", resp.StatusCode)
	}
	code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/dataset/ghost/stat", nil)
	if code != http.StatusNotFound {
		t.Fatalf("missing dataset stat: %d", code)
	}
	code, _ = doJSON(t, http.MethodGet, srv.URL+"/v1/dataset/ghost/diff", nil)
	if code != http.StatusBadRequest {
		t.Fatalf("diff without branches: %d", code)
	}
}

func TestDatasetAppendREST(t *testing.T) {
	srv, _, _ := newServer(t)
	csv1 := "id,name\n1,ann\n2,bob\n"
	resp, err := http.Post(srv.URL+"/v1/dataset/people?key=id", "text/csv", strings.NewReader(csv1))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("import code = %d", resp.StatusCode)
	}

	// Bulk-upsert two rows (one new, one changed) through the append path.
	csv2 := "id,name\n2,bobby\n3,cho\n"
	resp, err = http.Post(srv.URL+"/v1/dataset/people?append=1", "text/csv", strings.NewReader(csv2))
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append code = %d body = %v", resp.StatusCode, out)
	}
	if rows := out["rows"].(float64); rows != 3 {
		t.Fatalf("rows after append = %v", rows)
	}

	// Export reflects the upsert.
	resp, err = http.Get(srv.URL + "/v1/dataset/people")
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	body := b.String()
	if !strings.Contains(body, "bobby") || !strings.Contains(body, "cho") {
		t.Fatalf("export after append = %q", body)
	}

	// Appending to a missing dataset 404s.
	resp, err = http.Post(srv.URL+"/v1/dataset/ghost?append=1", "text/csv", strings.NewReader(csv2))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("append to ghost code = %d", resp.StatusCode)
	}
}

// TestCSVUploadBounded: both CSV upload routes refuse a body beyond
// maxCSVBody with 413, and a body within it still lands.
func TestCSVUploadBounded(t *testing.T) {
	defer func(n int64) { maxCSVBody = n }(maxCSVBody)
	maxCSVBody = 256
	srv, _, _ := newServer(t)
	big := "id,qty\n" + strings.Repeat("p1,10\n", 100)
	post := func(url, payload string, want int) {
		t.Helper()
		resp, err := http.Post(url, "text/csv", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != want {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("post %s: %d %s, want %d", url, resp.StatusCode, body, want)
		}
	}
	post(srv.URL+"/v1/dataset/stock?key=id", big, http.StatusRequestEntityTooLarge)
	post(srv.URL+"/v1/dataset/stock?key=id", "id,qty\np1,10\np2,20\n", http.StatusCreated)
	post(srv.URL+"/v1/dataset/stock?append=1", big, http.StatusRequestEntityTooLarge)
	post(srv.URL+"/v1/dataset/stock?append=1", "id,qty\np3,30\n", http.StatusOK)

	code, body := doJSON(t, http.MethodGet, srv.URL+"/v1/dataset/stock/stat", nil)
	if code != http.StatusOK || body["rows"].(float64) != 3 {
		t.Fatalf("stat after bounded uploads: %d %v", code, body)
	}
}
