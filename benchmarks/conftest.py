import run

run.use_checkout_sources()
