let sum = Exports_fixture.Api.tested + Exports_fixture.Api.hooked
