//! `bagualu generate` refuses a prompt and token budget that overrun the
//! model's context (exit 2, the same message `serve` gives) instead of
//! panicking on a wrapped length or silently decoding fewer tokens.

use std::process::Command;

fn generate(prompt: &str, tokens: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_bagualu"))
        .args(["generate", "--steps", "1", "--prompt", prompt])
        .args(["--tokens", tokens])
        .output()
        .expect("run bagualu")
}

fn assert_rejected(out: std::process::Output, prompt_len: usize, tokens: usize) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    let msg = format!(
        "--prompt of {prompt_len} tokens + --tokens {tokens} exceeds the model's max_seq (16)"
    );
    assert!(stderr.contains(&msg), "stderr: {stderr}");
}

#[test]
fn a_prompt_longer_than_the_context_is_a_named_error() {
    let prompt: Vec<String> = (1..=17).map(|t| t.to_string()).collect();
    assert_rejected(generate(&prompt.join(","), "2"), 17, 2);
}

#[test]
fn more_tokens_than_the_context_holds_is_a_named_error() {
    assert_rejected(generate("3,4", "100000"), 2, 100000);
}

#[test]
fn a_request_that_fits_decodes_every_token() {
    let out = generate("3,4", "14");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().find(|l| l.starts_with("prompt")).unwrap();
    let decoded = line.split('→').nth(1).unwrap().split_whitespace().count();
    assert_eq!(decoded, 16, "{line}");
}
